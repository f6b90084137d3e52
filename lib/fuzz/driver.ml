module Pool = Tpro_engine.Pool
module Supervisor = Tpro_engine.Supervisor
module Campaign = Tpro_engine.Campaign

type failure = {
  scenario : Scenario.t;
  message : string;
  shrunk : Scenario.t;
  shrunk_message : string;
}

let check_one s =
  match Oracle.check s with
  | Oracle.Pass -> None
  | Oracle.Fail m -> Some (s, m)

let shrink_failure (s, m) =
  let shrunk = Shrink.minimise Oracle.check s in
  let shrunk_message =
    match Oracle.check shrunk with Oracle.Fail m' -> m' | Oracle.Pass -> m
  in
  { scenario = s; message = m; shrunk; shrunk_message }

(* The per-kind tasks: generate trial [i], charge the fuel watchdog in
   proportion to its size, check it.  Campaigns, searches and serve
   jobs all run trials through these two functions. *)
let fuzz_trial ~fuel ~seed ~mutant i =
  let s = Scenario.generate ~seed ~mutant i in
  Supervisor.Fuel.burn ~amount:(Scenario.size s) fuel;
  check_one s

type topo_failure = { topology : Topology.t; topo_message : string }

let check_one_topo t =
  match Oracle.check_topology t with
  | Oracle.Pass -> None
  | Oracle.Fail m -> Some { topology = t; topo_message = m }

let topo_trial ~fuel ~seed ~mutant ~max_domains ~max_cores i =
  let t = Topology.generate ~seed ~mutant ~max_domains ~max_cores i in
  Supervisor.Fuel.burn ~amount:(Topology.size t) fuel;
  check_one_topo t

(* ------------------------------------------------------------------ *)
(* Unsupervised search: trials [0, budget) scanned in blocks over a
   pool, keeping every failure or stopping at the first.  Only the
   early exit needs small blocks; a full run is one block.  Chunk
   sizes are chosen by the pool's cost model per label: fuzz and
   topology trials have very different per-item costs. *)

let search ?pool ~label ~first check budget =
  let block =
    if not first then max 1 budget
    else match pool with Some p -> max 16 (4 * Pool.size p) | None -> 16
  in
  let map idxs =
    match pool with
    | Some p when Pool.size p > 1 -> Pool.map_auto ~label p check idxs
    | Some _ | None -> List.map check idxs
  in
  let rec go start acc =
    if start >= budget then List.rev acc
    else begin
      let idxs = List.init (min block (budget - start)) (fun i -> start + i) in
      let found =
        List.concat
          (List.map2
             (fun i r -> match r with Some f -> [ (i, f) ] | None -> [])
             idxs (map idxs))
      in
      match found with
      | hit :: _ when first -> [ hit ]
      | _ -> go (start + List.length idxs) (List.rev_append found acc)
    end
  in
  go 0 []

let fuzz_check ~seed ~mutant i =
  fuzz_trial ~fuel:(Supervisor.Fuel.make None) ~seed ~mutant i

let run ?pool ?(mutant = Scenario.No_mutant) ~seed ~trials () =
  search ?pool ~label:"fuzz-trial" ~first:false (fuzz_check ~seed ~mutant)
    trials
  |> List.map (fun (_, f) -> shrink_failure f)

(* The failing trial's 1-based position is how many trials the search
   needed. *)
let first_failure ?pool ?(mutant = Scenario.No_mutant) ~seed ~budget () =
  match
    search ?pool ~label:"fuzz-trial" ~first:true (fuzz_check ~seed ~mutant)
      budget
  with
  | (i, f) :: _ -> Some (i + 1, shrink_failure f)
  | [] -> None

let topo_check ~seed ~mutant ~max_domains ~max_cores i =
  topo_trial ~fuel:(Supervisor.Fuel.make None) ~seed ~mutant ~max_domains
    ~max_cores i

let topo_run ?pool ?(mutant = Scenario.No_mutant) ?(max_domains = 8)
    ?(max_cores = 4) ~seed ~trials () =
  search ?pool ~label:"topo-trial" ~first:false
    (topo_check ~seed ~mutant ~max_domains ~max_cores)
    trials
  |> List.map snd

let topo_first_failure ?pool ?(mutant = Scenario.No_mutant) ?(max_domains = 8)
    ?(max_cores = 4) ~seed ~budget () =
  match
    search ?pool ~label:"topo-trial" ~first:true
      (topo_check ~seed ~mutant ~max_domains ~max_cores)
      budget
  with
  | (i, f) :: _ -> Some (i + 1, f)
  | [] -> None

(* ------------------------------------------------------------------ *)
(* Supervised campaigns over {!Tpro_engine.Campaign}: a kind that
   records progress, so the checkpoint holds only [done N] and the
   failing trial indices.  Every scenario and verdict regenerates
   deterministically from those integers, so a resumed campaign's final
   report is bit-identical to an uninterrupted run.  Shrinking is
   deferred to the end of the campaign for the same reason. *)

type task_failure = { trial : int; error : Supervisor.task_error }

type campaign = {
  failures : failure list;
  trials : int;
  resumed_from : int;
  task_failures : task_failure list;
  notes : string list;
}

(* Returns the failing trial indices, the trials the supervisor lost,
   how many trials the checkpoint covered, and the notes. *)
let trial_campaign ~sup ?checkpoint ~resume ~kind ~seed ~mutant ~params ~label
    ~every ~trials failing =
  let spec =
    {
      Campaign.kind;
      params =
        ("seed", string_of_int seed)
        :: ("mutant", Scenario.mutant_to_string mutant)
        :: params;
      progress = true;
      tag = "fail";
      label;
      chunk = every;
      key = string_of_int;
      id = Fun.id;
      task = failing;
      entry = (fun failed -> if failed then Campaign.Mark else Campaign.Skip);
      decode =
        (function None -> Ok true | Some _ -> Error "unexpected payload");
    }
  in
  let o = Campaign.run ~sup ?checkpoint ~resume spec (List.init trials Fun.id) in
  ( List.map fst o.Campaign.recorded,
    List.map (fun (trial, error) -> { trial; error }) o.Campaign.failed,
    o.Campaign.resumed,
    o.Campaign.notes )

let campaign ~sup ?(mutant = Scenario.No_mutant) ?checkpoint
    ?(checkpoint_every = 200) ?(resume = false) ~seed ~trials () =
  let failing, task_failures, resumed_from, notes =
    trial_campaign ~sup ?checkpoint ~resume ~kind:"fuzz" ~seed ~mutant ~params:[]
      ~label:"fuzz-trial" ~every:checkpoint_every ~trials
      (fun ~fuel i -> Option.is_some (fuzz_trial ~fuel ~seed ~mutant i))
  in
  let failures =
    List.filter_map
      (fun i -> Option.map shrink_failure (fuzz_check ~seed ~mutant i))
      failing
  in
  { failures; trials; resumed_from; task_failures; notes }

(* ------------------------------------------------------------------ *)
(* Topology campaigns: the N-domain/M-core generalisation.

   No shrinking: a topology's fields are deeply cross-dependent (every
   schedule is a permutation of exactly that core's residents, IPC
   endpoints are edge-list positions, the focus/capacity/miscolour
   domains index the domain array), so field-local shrinking in the
   {!Shrink} style almost never preserves well-formedness — and the
   [(seed, idx)] pair plus the saved replay file is already a complete,
   minimal reproducer. *)

type topo_campaign = {
  topo_failures : topo_failure list;
  topo_trials : int;
  topo_resumed_from : int;
  topo_task_failures : task_failure list;
  topo_notes : string list;
}

let topo_campaign ~sup ?(mutant = Scenario.No_mutant) ?checkpoint
    ?(checkpoint_every = 50) ?(resume = false) ?(max_domains = 8)
    ?(max_cores = 4) ~seed ~trials () =
  let failing, task_failures, resumed_from, notes =
    trial_campaign ~sup ?checkpoint ~resume ~kind:"topo" ~seed ~mutant
      ~params:
        [
          ("domains", string_of_int max_domains);
          ("cores", string_of_int max_cores);
        ]
      ~label:"topo-trial" ~every:checkpoint_every ~trials
      (fun ~fuel i ->
        Option.is_some
          (topo_trial ~fuel ~seed ~mutant ~max_domains ~max_cores i))
  in
  {
    topo_failures =
      List.filter_map (topo_check ~seed ~mutant ~max_domains ~max_cores) failing;
    topo_trials = trials;
    topo_resumed_from = resumed_from;
    topo_task_failures = task_failures;
    topo_notes = notes;
  }

let pp_topo_failure ppf f =
  Format.fprintf ppf "@[<v>violation: %s@ topology: %a@]" f.topo_message
    Topology.pp f.topology

let pp_failure ppf f =
  Format.fprintf ppf "@[<v>violation: %s@ scenario: %a@ shrunk to: %a@ \
                      shrunk violation: %s@]"
    f.message Scenario.pp f.scenario Scenario.pp f.shrunk f.shrunk_message
