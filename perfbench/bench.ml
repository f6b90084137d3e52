(* Campaign-throughput and daemon-latency benchmark with per-layer costs.

   Usage (normally through perfbench/run.py, which builds this program):
     bench.exe --workload W --seed N --seconds S --trace 0|1
               --work-dir DIR --tpro TPRO_EXE

   With --trace 0 a run measures one workload end to end through the
   public entry points the CLI uses and prints the end-to-end metrics.
   With --trace 1 it runs the workload's items sequentially, decomposed
   into their public calls with a span around each, and prints the
   per-layer metrics.  Either way the last stdout line is one JSON object
   {correct, attempted, failed, metrics}.  See perfbench/README.md for
   the workloads, the metrics and why they were chosen. *)

open Tpro_hw
open Tpro_kernel
open Tpro_secmodel
open Tpro_fuzz
open Tpro_serve
module Sup = Tpro_engine.Supervisor
module Calibrate = Tpro_engine.Calibrate
module Pool = Tpro_engine.Pool
module Attack = Tpro_channel.Attack
module Capacity = Tpro_channel.Capacity
module Catalog = Tpro_channel.Catalog
module Presets = Time_protection.Presets
module Ni = Time_protection.Ni_scenario

(* ------------------------------------------------------------------ *)
(* Clocks and statistics *)

let now_ns () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)
let secs_since t0 = ns_since t0 *. 1e-9

(* Allocated words over every domain: minor plus directly-major
   allocations (promotions are already counted as minor words). *)
let words_all () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array, as Client.percentile. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1)))

let median xs = pct (sorted xs) 50.
let mean xs = List.fold_left ( +. ) 0. xs /. float (max 1 (List.length xs))

(* A "VmHWM:" (peak) or "VmRSS:" (current) line of a /proc status file,
   in MB. *)
let status_mb ?(path = "/proc/self/status") key =
  let ic = open_in path in
  let n = String.length key in
  let rec go () =
    match input_line ic with
    | l when String.length l > n && String.sub l 0 n = key ->
      Scanf.sscanf (String.sub l n (String.length l - n)) " %d" (fun kb ->
          float kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Resident set size now, in MB.  Sampled after every measured batch, its
   maximum is the measured region's peak, free of the set-up's repeated
   domain spawns, which made the process high-water mark bimodal. *)
let rss_mb () = status_mb "VmRSS:"

(* ------------------------------------------------------------------ *)
(* Arguments *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  work_dir : string;
  tpro : string;
}

let parse_args () =
  let get k =
    let rec go = function
      | a :: v :: _ when a = k -> Some v
      | _ :: r -> go r
      | [] -> None
    in
    go (Array.to_list Sys.argv)
  in
  let req k =
    match get k with
    | Some v -> v
    | None -> failwith ("missing argument " ^ k)
  in
  let int_arg k =
    match int_of_string_opt (req k) with
    | Some n -> n
    | None -> failwith ("not an integer: " ^ k)
  in
  {
    workload = req "--workload";
    seed = int_arg "--seed";
    seconds = float (int_arg "--seconds");
    trace = int_arg "--trace" <> 0;
    work_dir = req "--work-dir";
    tpro = req "--tpro";
  }

(* Inputs of batch/run [k] of a workload: distinct per (seed, k). *)
let derive seed k = (seed * 1_000) + k

(* ------------------------------------------------------------------ *)
(* The domain count every pool is pinned to.  On the 2-vCPU host the
   benchmark was defined on, the probe flips between 1 and 2 domains from
   run to run, and following it would make throughput bimodal.  One
   domain, not two: over twelve alternating runs of fuzz-2dom, the
   fastest call's rate spread 6% IQR/median at one domain against 22% at
   two (see README).  Each run's own verdict goes in its env line. *)

let pinned_domains = 1

(* ------------------------------------------------------------------ *)
(* Output *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics
let gate_failures : string list ref = ref []

let gate ok what =
  Printf.printf "gate %-58s %s\n%!" what (if ok then "ok" else "FAILED");
  if not ok then gate_failures := what :: !gate_failures

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~attempted ~failed =
  let ms = List.rev !metrics in
  List.iter
    (fun (n, v, u) -> Printf.printf "%-36s %14.6g %s\n" n v u)
    ms;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) ms in
  if not finite then gate false "every metric is a finite number";
  let correct = !gate_failures = [] in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (json_num v) u)
          ms))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Environment block *)

let cpu_max () =
  match open_in "/sys/fs/cgroup/cpu.max" with
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        try String.trim (input_line ic) with End_of_file -> "")
  | exception Sys_error _ -> "absent"

let print_env a ~(host : Calibrate.host) ~pinned =
  Printf.printf
    "env {\"nproc\": %d, \"cgroup_cpu_max\": \"%s\", \"ocaml\": \"%s\", \
     \"workload\": \"%s\", \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
     \"calibration\": {\"recommended\": %d, \"efficiency\": %.3f, \"note\": \
     \"%s\"}, \"pinned_domains\": %d, \"calibration_matches_pinned\": %b}\n%!"
    (Stdlib.Domain.recommended_domain_count ())
    (cpu_max ()) Sys.ocaml_version a.workload a.seed a.seconds a.trace
    host.Calibrate.recommended host.Calibrate.parallel_efficiency
    (String.escaped host.Calibrate.probe_note)
    pinned
    (host.Calibrate.recommended = pinned)

(* ------------------------------------------------------------------ *)
(* Set-up: the calibration probe plus supervisor creation, repeated and
   reported as a median.  The supervisor is pinned to the recorded
   domain count so that a probe that flips between one and two domains
   cannot make throughput bimodal; the probe's own verdict is recorded
   in the environment block of every run. *)

let setup_reps = 7

type 'a setup = {
  res : 'a;  (** what the last set-up created *)
  host : Calibrate.host;
  setup_s : float;
  calibrate_ms : float;
}

(* [start k] creates the workload's resources after the probe; every
   set-up but the last is undone with [release k]. *)
let repeated_setup ~start ~release =
  let rec go k acc =
    let t0 = now_ns () in
    let host = Calibrate.probe () in
    let cal = secs_since t0 in
    let res = start k in
    let acc = (secs_since t0, cal) :: acc in
    if k = 1 then (res, host, acc)
    else begin
      release k res;
      go (k - 1) acc
    end
  in
  let res, host, times = go setup_reps [] in
  {
    res;
    host;
    setup_s = median (List.map fst times);
    calibrate_ms = 1000. *. median (List.map snd times);
  }

let setup ~domains =
  repeated_setup
    ~start:(fun _ -> Sup.create ~domains ())
    ~release:(fun _ sup -> Sup.shutdown sup)

(* ------------------------------------------------------------------ *)
(* Campaign workloads (fuzz-2dom, topo-8dom) run batches through the
   CLI's entry points until the time is up.  A batch is one call as the
   CLI makes it by default: `tpro fuzz` runs 1000 trials, `tpro topo`
   200 topologies.  The first batch is warm-up and is not measured. *)

let fuzz_batch = 1000
let topo_batch = 200
let topo_max_domains = 8
let topo_max_cores = 4

type batch = { wall : float; items : int; failed : int }

(* Returns the measured batches, their total wall time, words and peak
   RSS, and the warm-up batch's failure count (gated like the rest). *)
let timed_batches ~seconds f =
  let _, warm_failed = f (-1) in
  let w0 = words_all () in
  let t_start = now_ns () in
  let rec go k acc rss =
    if k > 0 && secs_since t_start >= seconds then (List.rev acc, rss)
    else begin
      let t0 = now_ns () in
      let items, failed = f k in
      let wall = secs_since t0 in
      go (k + 1) ({ wall; items; failed } :: acc) (Float.max rss (rss_mb ()))
    end
  in
  let bs, rss = go 0 [] 0. in
  let wall = secs_since t_start in
  let words = words_all () -. w0 in
  (bs, wall, words, rss, warm_failed)

let report_batches (st : Sup.t setup) (bs, wall, words, rss, warm_failed) =
  let items = List.fold_left (fun n b -> n + b.items) 0 bs in
  let failed = List.fold_left (fun n b -> n + b.failed) 0 bs in
  let rates = sorted (List.map (fun b -> float b.items /. b.wall) bs) in
  Printf.printf
    "batches %d, items %d, failed %d; items/s per batch: min %.4g q1 %.4g \
     median %.4g q3 %.4g max %.4g\n"
    (List.length bs) items failed (pct rates 0.) (pct rates 25.) (pct rates 50.)
    (pct rates 75.) (pct rates 100.);
  Printf.printf "overall: %.4g items/s over %.3f s\n" (float items /. wall) wall;
  (* the fastest call (all calls have the same size): contention on a
     shared host only slows a call, and its spells often outlast one *)
  metric "throughput_per_s" "1/s" (pct rates 100.);
  metric "setup_s" "s" st.setup_s;
  metric "alloc_words_per_item" "words" (words /. float (max 1 items));
  metric "max_rss_mb" "MB" rss;
  metric "latency_ms" "ms" (1000. *. pct (sorted (List.map (fun b -> b.wall) bs)) 0.);
  (items, failed, warm_failed)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Did the kill name the mutant's matching lemma? *)
let killed_by msg lemma = contains msg ("lemma " ^ lemma ^ " refuted")

let mutants = [ Scenario.Skip_flush; Scenario.Drop_padding; Scenario.Miscolour ]
let mutant_seed = 42
let mutant_budget = 1_000

let expected_lemma mutant ~victim =
  match mutant with
  | Scenario.Skip_flush -> "flush:" ^ victim
  | Scenario.Drop_padding -> "kernel:padded-switch"
  | Scenario.Miscolour -> "partition:llc"
  | Scenario.No_mutant -> ""

let gate_fuzz_mutants (st : Sup.t setup) =
  let pool = Sup.pool st.res in
  List.iter
    (fun m ->
      let name = Scenario.mutant_to_string m in
      match
        Driver.first_failure ?pool ~mutant:m ~seed:mutant_seed
          ~budget:mutant_budget ()
      with
      | None -> gate false (Printf.sprintf "fuzz mutant %s killed" name)
      | Some (used, f) ->
        let want = expected_lemma m ~victim:(Scenario.skip_target f.Driver.scenario) in
        gate
          (killed_by f.Driver.message want)
          (Printf.sprintf "fuzz mutant %s killed by %s (trial %d)" name want
             used))
    mutants

let gate_topo_mutants (st : Sup.t setup) =
  let pool = Sup.pool st.res in
  List.iter
    (fun m ->
      let name = Scenario.mutant_to_string m in
      match
        Driver.topo_first_failure ?pool ~mutant:m ~max_domains:topo_max_domains
          ~max_cores:topo_max_cores ~seed:mutant_seed ~budget:mutant_budget ()
      with
      | None -> gate false (Printf.sprintf "topo mutant %s killed" name)
      | Some (used, f) ->
        let want =
          expected_lemma m ~victim:(Topology.skip_target f.Driver.topology)
        in
        gate
          (killed_by f.Driver.topo_message want)
          (Printf.sprintf "topo mutant %s killed by %s (topology %d)" name want
             used))
    mutants

let run_fuzz a (st : Sup.t setup) =
  let r =
    timed_batches ~seconds:a.seconds (fun k ->
        let c = Driver.campaign ~sup:st.res ~seed:(derive a.seed k) ~trials:fuzz_batch () in
        (c.Driver.trials, List.length c.Driver.failures + List.length c.Driver.task_failures))
  in
  let items, failed, warm_failed = report_batches st r in
  gate (failed + warm_failed = 0) "fuzz-2dom: zero violations and zero task failures";
  gate_fuzz_mutants st;
  (items, failed)

let run_topo a (st : Sup.t setup) =
  let r =
    timed_batches ~seconds:a.seconds (fun k ->
        let c =
          Driver.topo_campaign ~sup:st.res ~max_domains:topo_max_domains
            ~max_cores:topo_max_cores ~seed:(derive a.seed k) ~trials:topo_batch ()
        in
        ( c.Driver.topo_trials,
          List.length c.Driver.topo_failures
          + List.length c.Driver.topo_task_failures ))
  in
  let items, failed, warm_failed = report_batches st r in
  gate (failed + warm_failed = 0) "topo-8dom: zero violations and zero task failures";
  gate_topo_mutants st;
  (items, failed)

(* ------------------------------------------------------------------ *)
(* serve-mixed: the real `tpro serve` daemon, with a fresh fsynced
   journal, and two tenants in this process, each one connection with a
   fixed window — one submitting fuzz jobs, one topo jobs, both shaped
   like Job.bench_kind.  Job ids carry the tenant, the seed and the
   process id, so they are unique per tenant and run.  Tenants never
   share an id, so this workload does not exercise cross-tenant
   idempotency. *)

(* The client's window bounds unacknowledged submissions, not unresolved
   jobs, and the daemon runs at most one batch per loop turn.  So the
   two tenants' windows together match the daemon's default batch: a
   larger window (tpro client's default is 64) acknowledges faster than
   the daemon executes, the queue grows for the whole run, and a job's
   latency then measures how long the run has lasted (see README). *)
let serve_tenants = 2
let serve_window = (Server.default_config ~socket:"").Server.batch / serve_tenants

(* Jobs per tenant in the two warm-up rounds: the first warms the
   daemon, the second sizes the measured rounds. *)
let serve_warm_jobs = 16
let serve_sizing_jobs = 32

(* Measured rounds per run: throughput is the fastest one's, so that a
   contended spell in some rounds does not move it. *)
let serve_rounds = 5

type daemon = { socket : string; pid : int; log : string }

(* Daemons still running; killed and reaped if the benchmark dies. *)
let live_daemons : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid : int * Unix.process_status)
          with Unix.Unix_error _ -> ())
        !live_daemons)

let start_daemon ~tpro ~dir ~domains =
  rm_rf dir;
  mkdir_p dir;
  let socket = Filename.concat dir "s.sock" in
  let log = Filename.concat dir "daemon.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (* v=0x400: the runtime prints its allocation totals at exit *)
  let env = Array.append [| "OCAMLRUNPARAM=v=0x400" |] (Unix.environment ()) in
  let pid =
    Unix.create_process_env tpro
      [|
        tpro; "serve"; "--socket"; socket; "--journal";
        Filename.concat dir "journal"; "-j"; string_of_int domains;
      |]
      env Unix.stdin fd fd
  in
  Unix.close fd;
  live_daemons := pid :: !live_daemons;
  let t0 = now_ns () in
  let rec wait () =
    match Client.server_stats ~socket with
    | Ok _ -> ()
    | Error e ->
      if secs_since t0 > 30. then failwith ("serve daemon did not start: " ^ e);
      Unix.sleepf 0.001;
      wait ()
  in
  wait ();
  { socket; pid; log }

let rss_mb_of pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  if Sys.file_exists path then status_mb ~path "VmHWM:" else nan

type daemon_end = {
  stats : (string * string) list;
  daemon_rss_mb : float;
  allocated_words : float;
}

let stop_daemon d =
  let stats =
    match Client.server_stats ~socket:d.socket with
    | Ok st -> st
    | Error e -> failwith ("serve stats: " ^ e)
  in
  let daemon_rss_mb = rss_mb_of d.pid in
  (match Client.shutdown_server ~socket:d.socket with
  | Ok () -> ()
  | Error e -> failwith ("serve shutdown: " ^ e));
  ignore (Unix.waitpid [] d.pid : int * Unix.process_status);
  live_daemons := List.filter (( <> ) d.pid) !live_daemons;
  let allocated_words =
    let ic = open_in d.log in
    let rec go () =
      match input_line ic with
      | l -> (
        match Scanf.sscanf_opt l "allocated_words: %f" Fun.id with
        | Some w -> w
        | None -> go ())
      | exception End_of_file -> nan
    in
    Fun.protect ~finally:(fun () -> close_in ic) go
  in
  { stats; daemon_rss_mb; allocated_words }

let stat_int (e : daemon_end) k =
  match List.assoc_opt k e.stats with
  | Some v -> Option.value ~default:(-1) (int_of_string_opt v)
  | None -> -1

let serve_setup a ~domains =
  let dir k =
    Filename.concat a.work_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) k)
  in
  repeated_setup
    ~start:(fun k ->
      let d = start_daemon ~tpro:a.tpro ~dir:(dir k) ~domains in
      (* the second tenant's first connection (start_daemon made one) *)
      (match Client.server_stats ~socket:d.socket with
      | Ok _ -> ()
      | Error e -> failwith ("serve connect: " ^ e));
      (d, dir k))
    ~release:(fun _ (d, dir) ->
      ignore (stop_daemon d : daemon_end);
      rm_rf dir)

let serve_jobs ~seed ~tenant ~phase ~first n =
  let spec = Printf.sprintf "%s:%d" tenant seed in
  let kind =
    match Job.bench_kind spec with Ok f -> f | Error e -> failwith e
  in
  List.init n (fun i ->
      let idx = first + i in
      {
        Job.id =
          Printf.sprintf "%s-%d-%d-%s%06d" tenant seed (Unix.getpid ()) phase idx;
        deadline = 0;
        kind = kind idx;
      })

(* Run both tenants concurrently, each on its own connection. *)
let run_tenants d ~fuzz ~topo =
  let spawn tenant jobs =
    Stdlib.Domain.spawn (fun () ->
        Client.run_jobs ~socket:d.socket ~tenant ~window:serve_window jobs)
  in
  let t0 = now_ns () in
  let df = spawn "fuzz" fuzz and dt = spawn "topo" topo in
  let rf = Stdlib.Domain.join df and rt = Stdlib.Domain.join dt in
  let wall = secs_since t0 in
  match (rf, rt) with
  | Ok rf, Ok rt -> (wall, rf, rt)
  | Error e, _ | _, Error e -> failwith ("serve client: " ^ e)

(* Reference outcomes: the same kinds through Job.execute in-process. *)
let reference_outcomes (sup : Sup.t) jobs =
  let arr = Array.of_list jobs in
  Sup.run sup ~label:"perfbench-serve-ref" ~key:Fun.id
    (fun ~fuel:_ i ->
      Job.execute ~fuel:(Sup.Fuel.make None) arr.(i).Job.kind)
    (List.init (Array.length arr) Fun.id)

let check_outcomes sup jobs (results : (string * Wire.outcome) list) =
  let refs = reference_outcomes sup jobs in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (id, o) -> Hashtbl.replace by_id id o) results;
  let ok = ref 0 and bad = ref 0 in
  List.iter2
    (fun (j : Job.t) r ->
      match (Hashtbl.find_opt by_id j.Job.id, r) with
      | Some (Ok got), Ok (Ok want) when got = want -> incr ok
      | _ -> incr bad)
    jobs refs;
  (!ok, !bad)

let failure_outcomes results =
  List.length (List.filter (fun (_, o) -> Result.is_error o) results)

let run_serve a ~domains =
  let st = serve_setup a ~domains in
  let d, dir = st.res in
  print_env a ~host:st.host ~pinned:domains;
  Printf.printf "setup: %.4f s (calibrate %.2f ms)\n%!" st.setup_s st.calibrate_ms;
  let seed_f = derive a.seed 0 and seed_t = derive a.seed 1 in
  let round phase first n =
    run_tenants d
      ~fuzz:(serve_jobs ~seed:seed_f ~tenant:"fuzz" ~phase ~first n)
      ~topo:(serve_jobs ~seed:seed_t ~tenant:"topo" ~phase ~first n)
  in
  ignore (round "w" 0 serve_warm_jobs);
  let swall, _, _ = round "s" serve_warm_jobs serve_sizing_jobs in
  (* Measured rounds of [per_round] jobs per tenant, each about a fifth
     of --seconds, until --seconds are up. *)
  let per_round =
    max serve_sizing_jobs
      (int_of_float (a.seconds /. float serve_rounds *. float serve_sizing_jobs /. swall))
  in
  let t_start = now_ns () in
  let rec go k first acc =
    if k >= serve_rounds && secs_since t_start >= a.seconds then (List.rev acc, first)
    else begin
      let jf = serve_jobs ~seed:seed_f ~tenant:"fuzz" ~phase:"m" ~first per_round in
      let jt = serve_jobs ~seed:seed_t ~tenant:"topo" ~phase:"m" ~first per_round in
      let wall, rf, rt = run_tenants d ~fuzz:jf ~topo:jt in
      go (k + 1) (first + per_round) ((wall, jf @ jt, rf, rt) :: acc)
    end
  in
  let rounds, next = go 0 (serve_warm_jobs + serve_sizing_jobs) [] in
  let fin = stop_daemon d in
  rm_rf dir;
  let n = 2 * per_round * List.length rounds in
  let submitted = 2 * next in
  let wall = List.fold_left (fun t (w, _, _, _) -> t +. w) 0. rounds in
  let reports = List.concat_map (fun (_, _, rf, rt) -> [ rf; rt ]) rounds in
  let jobs = List.concat_map (fun (_, js, _, _) -> js) rounds in
  let results = List.concat_map (fun (r : Client.report) -> r.Client.results) reports in
  let lat =
    sorted (List.concat_map (fun (r : Client.report) -> Array.to_list r.Client.latencies) reports)
  in
  let rates = sorted (List.map (fun (w, _, _, _) -> float (2 * per_round) /. w) rounds) in
  (* the fastest round, as for the campaigns' calls (all rounds have one
     size) *)
  let _, _, frf, frt =
    List.fold_left
      (fun ((bw, _, _, _) as b) ((w, _, _, _) as r) -> if w < bw then r else b)
      (List.hd rounds) rounds
  in
  let fastest_lat = sorted (Array.to_list frf.Client.latencies @ Array.to_list frt.Client.latencies) in
  let p99 = pct lat 99. in
  let beyond = Array.fold_left (fun n x -> if x > p99 then n + 1 else n) 0 lat in
  let sum f = List.fold_left (fun t r -> t + f r) 0 reports in
  Printf.printf
    "serve: %d rounds of %d jobs, %d jobs in %.3f s; jobs/s per round: min %.4g \
     median %.4g max %.4g; latency p50 %.2f ms over %d samples (fastest \
     round: %.2f ms over %d); %s; busy retries %d, reconnects %d\n%!"
    (List.length rounds) (2 * per_round) n wall (pct rates 0.) (pct rates 50.)
    (pct rates 100.) (1000. *. pct lat 50.) (Array.length lat)
    (1000. *. pct fastest_lat 50.) (Array.length fastest_lat)
    (if beyond >= 10 then Printf.sprintf "latency_p99_ms %.2f (%d beyond)" (1000. *. p99) beyond
     else Printf.sprintf "p99 not reported: %d samples beyond it" beyond)
    (sum (fun r -> r.Client.busy_retries))
    (sum (fun r -> r.Client.reconnects));
  metric "throughput_per_s" "1/s" (pct rates 100.);
  metric "setup_s" "s" st.setup_s;
  (* the daemon's allocation over its whole life, per job it ran *)
  metric "alloc_words_per_item" "words" (fin.allocated_words /. float submitted);
  metric "max_rss_mb" "MB" (fin.daemon_rss_mb +. rss_mb ());
  metric "latency_ms" "ms" (1000. *. pct fastest_lat 50.);
  let failed = failure_outcomes results in
  (* The check is not timed, so it may use every core. *)
  let sup = Sup.create ~domains:(Stdlib.Domain.recommended_domain_count ()) () in
  let t_check = now_ns () in
  let ok, bad = check_outcomes sup jobs results in
  Printf.printf "reference check: %.1f s\n%!" (secs_since t_check);
  Sup.shutdown sup;
  gate (bad = 0 && ok = n)
    (Printf.sprintf "serve-mixed: %d results byte-equal to Job.execute" ok);
  let executed = stat_int fin "executed" in
  gate (executed = submitted)
    (Printf.sprintf "serve-mixed: executed %d = submitted %d" executed submitted);
  gate (failed = 0 && stat_int fin "failed" = 0) "serve-mixed: no failure outcomes";
  (n, failed)

(* ------------------------------------------------------------------ *)
(* Traced run.  Spans are kept in memory and written out at the end; a
   span's self time is its duration minus its children's.  Spans and
   samples recorded while the workload's own items run are marked
   [own]; a few items of the other families run afterwards, only to
   measure the named calls the workload's own items never make. *)

type span = {
  name : string;
  parent : int;
  item : int;
  id : int;
  own : bool;
  t0 : int64;
  w0 : float;
  mutable dur : float;  (** ns *)
  mutable words : float;
  mutable child_dur : float;
  mutable child_words : float;
}

let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let cur_item = ref (-1)
let own_phase = ref true

let span name f =
  let parent = match !stack with p :: _ -> Some p | [] -> None in
  let s =
    {
      name;
      parent = (match parent with Some p -> p.id | None -> -1);
      item = !cur_item;
      id = !next_id;
      own = !own_phase;
      w0 = Gc.minor_words ();
      t0 = now_ns ();
      dur = 0.;
      words = 0.;
      child_dur = 0.;
      child_words = 0.;
    }
  in
  incr next_id;
  stack := s :: !stack;
  let r = f () in
  s.dur <- ns_since s.t0;
  s.words <- Gc.minor_words () -. s.w0;
  stack := List.tl !stack;
  (match parent with
  | Some p ->
    p.child_dur <- p.child_dur +. s.dur;
    p.child_words <- p.child_words +. s.words
  | None -> ());
  spans := s :: !spans;
  r

let item_ctr = ref 0

(* A workload item: a root span named "item.<family>". *)
let item family f =
  cur_item := !item_ctr;
  incr item_ctr;
  let r = span ("item." ^ family) f in
  cur_item := -1;
  r

let untraced f =
  let w0 = Gc.minor_words () and t0 = now_ns () in
  let r = f () in
  (r, ns_since t0, Gc.minor_words () -. w0)

(* The workload's own measurements when it made any, else the other
   families'. *)
let prefer_own own xs =
  match List.filter own xs with [] -> xs | mine -> mine

let spans_named n =
  prefer_own (fun s -> s.own) (List.filter (fun s -> s.name = n) !spans)

let mean_dur n = mean (List.map (fun s -> s.dur) (spans_named n))
let mean_words n = mean (List.map (fun s -> s.words) (spans_named n))

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let write_spans path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc
        "id\tparent\titem\town\tname\tdur_ns\tself_ns\twords\tself_words\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%b\t%s\t%.0f\t%.0f\t%.0f\t%.0f\n" s.id
            s.parent s.item s.own s.name s.dur (s.dur -. s.child_dur) s.words
            (s.words -. s.child_words))
        (List.rev !spans))

(* Raw samples of operations too short for a span (ns), or counts. *)
let samples : (string, (bool * float) list) Hashtbl.t = Hashtbl.create 16

let sample name v =
  Hashtbl.replace samples name
    ((!own_phase, v)
    :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let time_ns name f =
  let t0 = now_ns () in
  let r = f () in
  sample name (ns_since t0);
  r

let samples_of name =
  List.map snd
    (prefer_own fst (Option.value ~default:[] (Hashtbl.find_opt samples name)))

(* One execution to quiescence, as Nonint.execute does, counting steps. *)
let execute ~max_steps build secret =
  span "kernel.execute" (fun () ->
      let run = build ~secret in
      List.iter (fun th -> Thread.set_traced th true) run.Nonint.observers;
      let steps = ref 0 in
      while !steps < max_steps && Kernel.step run.Nonint.kernel do
        incr steps
      done;
      sample "kernel.steps" (float !steps);
      run)

(* Probe the hardware layer on a machine left warm and dirty by an
   execution: digests first, since flushing resets the state they read. *)
let probe_hw m =
  for core = 0 to Machine.n_cores m - 1 do
    ignore (time_ns "hw.digest_core" (fun () -> Machine.digest_core m ~core) : int64);
    ignore
      (time_ns "hw.digest_core_fold" (fun () -> Machine.digest_core_fold m ~core)
        : int64)
  done;
  ignore (time_ns "hw.digest_shared" (fun () -> Machine.digest_shared m) : int64);
  for core = 0 to Machine.n_cores m - 1 do
    ignore
      (time_ns "hw.flush_core_local" (fun () -> Machine.flush_core_local m ~core)
        : int)
  done

(* ---- The oracles split into their public calls.  Each returns the
   verdict (true = pass) and must agree with the whole oracle; the
   [fuzz.check_*] span around a split is the oracle's own glue, the only
   time the split leaves unattributed. *)

let llc_digest k dom =
  span "fuzz.lo_llc_digest" (fun () ->
      Oracle.lo_llc_digest (Kernel.machine k) (Kernel.domain k dom))

(* The final flushable audit of two runs' machines, every core. *)
let flush_audit ma mb =
  let ok = ref true in
  for core = 0 to Machine.n_cores ma - 1 do
    span "hw.flush_core_local" (fun () ->
        ignore (Machine.flush_core_local ma ~core : int);
        ignore (Machine.flush_core_local mb ~core : int));
    span "hw.resource_digest" (fun () ->
        List.iter2
          (fun x y ->
            if Resource.flushable x && Resource.digest x <> Resource.digest y
            then ok := false)
          (Machine.core_resources ma ~core)
          (Machine.core_resources mb ~core))
  done;
  !ok

(* Oracle.check_nonint *)
let nonint_split (s : Scenario.t) =
  let build ~secret = span "kernel.build" (fun () -> Scenario.build_ni s ~secret) in
  let sw =
    span "secmodel.sweep" (fun () ->
        Unwinding.sweep_pair ~max_kernel_steps:Scenario.max_steps ~build
          ~secret1:s.Scenario.secret_a ~secret2:s.Scenario.secret_b ())
  in
  sample "secmodel.lo_boundaries" (float sw.Unwinding.boundaries);
  Unwinding.sweep_divergence sw = None
  &&
  let ra = sw.Unwinding.run_a and rb = sw.Unwinding.run_b in
  let rep = span "secmodel.compare_runs" (fun () -> Nonint.compare_runs ra rb) in
  Nonint.secure rep
  &&
  let ka = ra.Nonint.kernel and kb = rb.Nonint.kernel in
  let cfg = Kernel.config ka in
  ((not cfg.Kernel.flush_on_switch)
  || flush_audit (Kernel.machine ka) (Kernel.machine kb))
  && ((not cfg.Kernel.colouring) || llc_digest ka 1 = llc_digest kb 1)

(* Oracle.check_legacy, whose trace loop is private: this is that
   loop, call for call. *)
let run_trace m ~core ~seed ~steps =
  let rng = Rng.create seed in
  let span = 0x40000 in
  for _ = 1 to steps do
    match Rng.int rng 5 with
    | 0 | 1 ->
      ignore
        (Machine.touch_paddr m ~core ~owner:(Rng.int rng 2) ~write:false
           (Rng.int rng span))
    | 2 ->
      ignore
        (Machine.touch_paddr m ~core ~owner:(Rng.int rng 2) ~write:true
           (Rng.int rng span))
    | 3 -> ignore (Machine.fetch_paddr m ~core ~owner:0 (Rng.int rng span))
    | _ ->
      ignore
        (Machine.branch m ~core ~pc:(Rng.int rng 256 * 4) ~taken:(Rng.bool rng))
  done

let legacy_split (s : Scenario.t) =
  Resource.with_digest_debug @@ fun () ->
  let mc = Scenario.machine_config s in
  let m = span "hw.machine_create" (fun () -> Machine.create mc) in
  span "hw.run_trace" (fun () ->
      run_trace m ~core:0 ~seed:s.Scenario.hi_seed ~steps:s.Scenario.trace_steps);
  let dc = span "hw.digest_core" (fun () -> Machine.digest_core m ~core:0) in
  let lc =
    span "fuzz.legacy_digest_core" (fun () -> Oracle.legacy_digest_core m ~core:0)
  in
  dc = lc
  &&
  let ds = span "hw.digest_shared" (fun () -> Machine.digest_shared m) in
  let ls = span "fuzz.legacy_digest_shared" (fun () -> Oracle.legacy_digest_shared m) in
  ds = ls
  &&
  let expect =
    span "fuzz.legacy_flush_cost" (fun () -> Oracle.legacy_flush_cost m ~core:0)
  in
  let cost, reports =
    span "hw.flush_core_local_report" (fun () ->
        Machine.flush_core_local_report m ~core:0)
  in
  List.for_all
    (fun r ->
      (not (Resource.flushable r)) || List.mem_assoc (Resource.name r) reports)
    (Machine.core_resources m ~core:0)
  && cost = expect
  &&
  let fresh =
    span "hw.machine_create" (fun () ->
        Machine.create { mc with Machine.fault = None })
  in
  span "hw.digest_core" (fun () -> Machine.digest_core m ~core:0)
  = span "hw.digest_core" (fun () -> Machine.digest_core fresh ~core:0)

(* Oracle.check_capacity *)
let capacity_split (s : Scenario.t) =
  let e = List.nth Catalog.all (s.Scenario.channel mod List.length Catalog.all) in
  let scen = span "channel.scenario" e.Catalog.scenario in
  let bits cfg =
    span "channel.attack_measure" (fun () ->
        (Attack.measure ~seeds:[ s.Scenario.cap_seed ] scen ~cfg ())
          .Attack.capacity_bits)
  in
  bits Presets.full <= 1e-9
  && ((not e.Catalog.leaky) || bits Presets.none > 1e-9)

(* Oracle.check_topology.  Its observation digest is private: this is
   it, call for call. *)
let obs_symbol run ~obs =
  span "fuzz.obs_symbol" (fun () ->
      let ths = Domain.threads (Kernel.domain run.Nonint.kernel obs) in
      let s =
        Format.asprintf "%a"
          (Format.pp_print_list Observation.pp)
          (Observation.of_threads ths)
      in
      Int64.to_int
        (String.fold_left (fun acc c -> Rng.chain_int acc (Char.code c)) 7L s)
      land max_int)

let topology_split (t : Topology.t) =
  let n = Topology.n_domains t in
  let fv = t.Topology.deep_hi and fo = t.Topology.deep_lo in
  let ms = Topology.max_steps t in
  let build ~vary ~secret =
    span "kernel.build" (fun () -> Topology.build t ~vary ~secret)
  in
  let sw =
    span "secmodel.sweep" (fun () ->
        Unwinding.sweep_pair ~max_kernel_steps:ms ~lo_dom:fo ~build:(build ~vary:fv)
          ~secret1:t.Topology.secret_a ~secret2:t.Topology.secret_b ())
  in
  sample "secmodel.lo_boundaries" (float sw.Unwinding.boundaries);
  Unwinding.sweep_divergence sw = None
  &&
  let run v secret =
    span "kernel.run" (fun () -> Nonint.execute ~max_steps:ms (build ~vary:v) secret)
  in
  let base = sw.Unwinding.run_a in
  let runs =
    Array.init n (fun v ->
        if v = fv then sw.Unwinding.run_b else run v t.Topology.secret_b)
  in
  List.for_all
    (fun (v, o) ->
      let rep =
        span "secmodel.compare_runs" (fun () ->
            Nonint.compare_runs (Nonint.view_from base ~dom:o)
              (Nonint.view_from runs.(v) ~dom:o))
      in
      let ka = base.Nonint.kernel and kb = runs.(v).Nonint.kernel in
      Nonint.secure rep
      && ((not (Kernel.config ka).Kernel.colouring)
         || llc_digest ka o = llc_digest kb o))
    (Topology.pairs t)
  && ((not (Topology.kernel_config t).Kernel.flush_on_switch)
     || List.for_all
          (fun v ->
            flush_audit (Kernel.machine base.Nonint.kernel)
              (Kernel.machine runs.(v).Nonint.kernel))
          (List.init n Fun.id))
  &&
  let c = t.Topology.cap_dom and o = t.Topology.cap_obs in
  let a = t.Topology.secret_a in
  let s3 = (a + 3) mod 8 and s4 = (a + 5) mod 8 in
  let samples =
    [
      (a, obs_symbol base ~obs:o);
      (t.Topology.secret_b, obs_symbol runs.(c) ~obs:o);
      (s3, obs_symbol (run c s3) ~obs:o);
      (s4, obs_symbol (run c s4) ~obs:o);
    ]
  in
  span "channel.capacity" (fun () -> Capacity.of_samples samples) <= 1e-9

let fuzz_split (s : Scenario.t) =
  match s.Scenario.oracle with
  | Scenario.Nonint -> span "fuzz.check_nonint" (fun () -> nonint_split s)
  | Scenario.Legacy -> span "fuzz.check_legacy" (fun () -> legacy_split s)
  | Scenario.Capacity -> span "fuzz.check_capacity" (fun () -> capacity_split s)

let topo_split t = span "fuzz.check_topology" (fun () -> topology_split t)

(* The wrappers: spans whose self time no public call below accounts
   for. *)
let wrapper name =
  List.mem name
    [
      "fuzz.check_nonint"; "fuzz.check_legacy"; "fuzz.check_capacity";
      "fuzz.check_topology"; "serve.job_execute";
    ]

type item_stat = { traced_ns : float; untraced_ns : float; agree : bool }

let item_stats : (bool * item_stat) list ref = ref []
let flip = ref false

(* Run an item untraced and traced, alternating which goes first so that
   cache and GC state favour neither; record both times and whether the
   two results agree. *)
let paired fam ~untraced:u ~traced:t ~agree =
  flip := not !flip;
  let run_u () = untraced u in
  let run_t () =
    let r = item fam t in
    (r, List.hd !spans)
  in
  let (ru, t_u, w_u), (rt, sp) =
    if !flip then
      let a = run_u () in
      (a, run_t ())
    else
      let b = run_t () in
      (run_u (), b)
  in
  item_stats :=
    (!own_phase, { traced_ns = sp.dur; untraced_ns = t_u; agree = agree ru rt })
    :: !item_stats;
  (ru, t_u, w_u)

(* Per nonint item: (exec pair, sweep, whole oracle) as (ns, words),
   marked own like a sample. *)
let baseline : (bool * (float * float * float * float * float * float)) list ref =
  ref []

(* Per topology: the whole oracle, untraced, as (ns, words). *)
let topo_baseline : (bool * (float * float)) list ref = ref []

(* Outside the item: two standalone executions against the item's
   sweep, the Lo view, and the hardware probes on a warm machine. *)
let probe_scenario (s : Scenario.t) ~t_u ~w_u =
  sample ("fuzz.items_" ^ Scenario.oracle_to_string s.Scenario.oracle) 1.;
  if s.Scenario.oracle = Scenario.Nonint then begin
    (* the most recent sweep span is this item's *)
    let sweep = List.find (fun x -> x.name = "secmodel.sweep") !spans in
    let build ~secret = span "kernel.build" (fun () -> Scenario.build_ni s ~secret) in
    let w0 = Gc.minor_words () and t0 = now_ns () in
    let ra = execute ~max_steps:Scenario.max_steps build s.Scenario.secret_a in
    let _rb = execute ~max_steps:Scenario.max_steps build s.Scenario.secret_b in
    let pair_ns = ns_since t0 and pair_w = Gc.minor_words () -. w0 in
    baseline :=
      (!own_phase, (pair_ns, pair_w, sweep.dur, sweep.words, t_u, w_u))
      :: !baseline;
    ignore
      (span "secmodel.lo_view" (fun () ->
           Unwinding.lo_view ra.Nonint.kernel ~lo_dom:1)
        : (string * int64) list);
    probe_hw (Kernel.machine ra.Nonint.kernel)
  end

let probe_topology (t : Topology.t) ~t_u ~w_u =
  topo_baseline := (!own_phase, (t_u, w_u)) :: !topo_baseline;
  let build ~secret =
    span "kernel.build" (fun () ->
        Topology.build t ~vary:t.Topology.deep_hi ~secret)
  in
  let r = execute ~max_steps:(Topology.max_steps t) build t.Topology.secret_a in
  probe_hw (Kernel.machine r.Nonint.kernel)

let probe_fuzz ~seed idx =
  let s = Scenario.generate ~seed idx in
  let _, t_u, w_u =
    paired "fuzz" ~agree:( = )
      ~untraced:(fun () -> Driver.check_one s = None)
      ~traced:(fun () ->
        fuzz_split (span "fuzz.generate" (fun () -> Scenario.generate ~seed idx)))
  in
  probe_scenario s ~t_u ~w_u

let topo_gen ~seed idx =
  Topology.generate ~seed ~max_domains:topo_max_domains ~max_cores:topo_max_cores
    idx

let probe_topo ~seed idx =
  let t = topo_gen ~seed idx in
  let _, t_u, w_u =
    paired "topo" ~agree:( = )
      ~untraced:(fun () -> Driver.check_one_topo t = None)
      ~traced:(fun () -> topo_split (span "fuzz.generate" (fun () -> topo_gen ~seed idx)))
  in
  probe_topology t ~t_u ~w_u

(* A prove task (preset, latency seed), built exactly as Prove builds it. *)
let prove_build ~cfg ~seed ~secret = Ni.build_with ~with_btb:true ~cfg ~seed ~secret

let probe_prove_task ~cfg ~seed =
  let secrets = Ni.default_secrets in
  let collect build = Theorem.collect ~seed ~build ~secrets () in
  let _, _, _ =
    paired "prove"
      ~agree:(fun a b ->
        Theorem.evidence_to_string a = Theorem.evidence_to_string b)
      ~untraced:(fun () -> collect (fun ~secret -> prove_build ~cfg ~seed ~secret))
      ~traced:(fun () ->
        span "secmodel.theorem_collect" (fun () ->
            collect (fun ~secret ->
                span "kernel.build" (fun () -> prove_build ~cfg ~seed ~secret))))
  in
  ()

(* The per-kind exhaustive small-model lemmas of one preset, as Prove
   composes them. *)
let probe_exhaustive ~cfg ~seed =
  let machine = Machine.create (Ni.machine_config_with ~with_btb:true ~seed) in
  let build ~hi_prog ~seed =
    Ni.build_with_program_on ~with_btb:true ~cfg ~seed ~hi_prog
  in
  List.iter
    (fun ku ->
      let check () = Exhaustive.check ~build ku.Exhaustive.ku_universe in
      let _, _, _ =
        paired "exhaustive" ~agree:( = ) ~untraced:check
          ~traced:(fun () -> span "secmodel.exhaustive" check)
      in
      ())
    (Exhaustive.kind_universes ~machine ())

(* `tpro prove --all`'s tasks for one latency seed. *)
let prove_tasks seed =
  List.map
    (fun (_, cfg) -> (cfg, derive seed 0))
    (Presets.standard @ Presets.ablations)

(* serve: Job.execute of the kinds serve-mixed submits, split into the
   same oracle calls as the campaign items; a daemon round for latency;
   a round of Ping jobs for the daemon's own cost per job; and the
   journal's durability barrier. *)
let serve_exec_ms : (string, float) Hashtbl.t = Hashtbl.create 64

let probe_serve_job (j : Job.t) =
  let exec () = Job.execute ~fuel:(Sup.Fuel.make None) j.Job.kind in
  let _, t_u, w_u =
    paired "serve"
      ~agree:(fun ru rt -> (ru = Ok "pass") = rt)
      ~untraced:exec
      ~traced:(fun () ->
        span "serve.job_execute" (fun () ->
            match j.Job.kind with
            | Job.Fuzz { seed; idx; mutant } ->
              fuzz_split
                (span "fuzz.generate" (fun () -> Scenario.generate ~seed ~mutant idx))
            | Job.Topo { seed; idx; max_domains; max_cores; mutant } ->
              topo_split
                (span "fuzz.generate" (fun () ->
                     Topology.generate ~seed ~mutant ~max_domains ~max_cores idx))
            | _ -> failwith "serve-mixed submits fuzz and topo jobs only"))
  in
  Hashtbl.replace serve_exec_ms j.Job.id (t_u /. 1e6);
  match j.Job.kind with
  | Job.Fuzz { seed; idx; mutant } ->
    probe_scenario (Scenario.generate ~seed ~mutant idx) ~t_u ~w_u
  | Job.Topo { seed; idx; max_domains; max_cores; mutant } ->
    probe_topology
      (Topology.generate ~seed ~mutant ~max_domains ~max_cores idx)
      ~t_u ~w_u
  | _ -> ()

let probe_journal dir =
  mkdir_p dir;
  let path = Filename.concat dir "journal-probe" in
  let j, _ = Journal.open_ ~path ~resume:false in
  for i = 1 to 32 do
    let job = { Job.id = Printf.sprintf "probe-%d" i; deadline = 0; kind = Job.Ping } in
    time_ns "serve.journal_sync" (fun () ->
        Journal.append j (Journal.Accepted { job; tenant = "probe" });
        Journal.sync j)
  done;
  Journal.close j;
  Sys.remove path

(* Ping jobs per tenant in the round that measures the daemon's own
   cost per job. *)
let ping_jobs = 1024

let probe_daemon a ~domains ~per_tenant =
  let dir = Filename.concat a.work_dir (Printf.sprintf "trace-serve-%d" (Unix.getpid ())) in
  let d = start_daemon ~tpro:a.tpro ~dir ~domains in
  let jf = serve_jobs ~seed:(derive a.seed 0) ~tenant:"fuzz" ~phase:"t" ~first:0 per_tenant in
  let jt = serve_jobs ~seed:(derive a.seed 1) ~tenant:"topo" ~phase:"t" ~first:0 per_tenant in
  List.iter probe_serve_job (jf @ jt);
  let _, rf, rt = run_tenants d ~fuzz:jf ~topo:jt in
  (* A Ping's execution is a constant string, so a Ping round's wall
     time is the serve layer's alone: Wire, Journal, the select loop. *)
  let pings tenant =
    List.init ping_jobs (fun i ->
        {
          Job.id = Printf.sprintf "%s-ping-%d-%d" tenant (Unix.getpid ()) i;
          deadline = 0;
          kind = Job.Ping;
        })
  in
  let ping_wall, _, _ = run_tenants d ~fuzz:(pings "fuzz") ~topo:(pings "topo") in
  let fin = stop_daemon d in
  probe_journal dir;
  rm_rf dir;
  let lat_of (r : Client.report) = Array.to_list r.Client.latencies in
  let overhead (jobs : Job.t list) (r : Client.report) =
    List.map2
      (fun (j : Job.t) l -> (1000. *. l) -. Hashtbl.find serve_exec_ms j.Job.id)
      jobs (lat_of r)
  in
  let lat = sorted (lat_of rf @ lat_of rt) in
  metric "serve.self_ms_per_item" "ms" (1000. *. ping_wall /. float (2 * ping_jobs));
  metric "serve.job_execute_ms" "ms" (mean_dur "serve.job_execute" /. 1e6);
  metric "serve.overhead_p50_ms" "ms" (median (overhead jf rf @ overhead jt rt));
  metric "serve.journal_sync_ms" "ms" (median (samples_of "serve.journal_sync") /. 1e6);
  metric "serve.tenant_p50_ms.fuzz" "ms" (1000. *. median (lat_of rf));
  metric "serve.tenant_p50_ms.topo" "ms" (1000. *. median (lat_of rt));
  metric "serve.latency_p90_ms" "ms" (1000. *. pct lat 90.);
  metric "serve.latency_samples" "count" (float (Array.length lat));
  metric "serve.executed_per_accepted" "ratio"
    (float (stat_int fin "executed") /. float (max 1 (stat_int fin "accepted")));
  metric "serve.idempotent_hits" "count" (float (stat_int fin "idempotent"));
  metric "serve.busy_retries" "count"
    (float (rf.Client.busy_retries + rt.Client.busy_retries));
  metric "serve.reconnects" "count"
    (float (rf.Client.reconnects + rt.Client.reconnects))

let run_traced a (st : Sup.t setup) ~domains =
  let main = a.workload in
  let budget = a.seconds in
  let t_start = now_ns () in
  let until_budget f =
    let rec go k = if k = 0 || secs_since t_start < budget then (f k; go (k + 1)) in
    go 0
  in
  let fuzz_seed = derive a.seed 0 and topo_seed = derive a.seed 1 in
  (* The workload's own items get the time budget. *)
  (match main with
  | "fuzz-2dom" -> until_budget (probe_fuzz ~seed:fuzz_seed)
  | "topo-8dom" -> until_budget (probe_topo ~seed:topo_seed)
  | "serve-mixed" ->
    until_budget (fun k ->
        let tenant, s = if k mod 2 = 0 then ("fuzz", fuzz_seed) else ("topo", topo_seed) in
        List.iter probe_serve_job (serve_jobs ~seed:s ~tenant ~phase:"x" ~first:(k / 2) 1))
  | w -> failwith ("unknown workload " ^ w));
  own_phase := false;
  (* The workload's own items: each layer's self time inside them, and
     the share of their untraced time that the public calls account for
     (everything but the item roots' and the wrappers' self time). *)
  let own = List.filter (fun s -> s.own && s.item >= 0) !spans in
  let roots = List.filter (fun s -> s.parent = -1) own in
  let inner = List.filter (fun s -> s.parent <> -1) own in
  let self s = s.dur -. s.child_dur in
  let sum f xs = List.fold_left (fun t x -> t +. f x) 0. xs in
  let n_items = List.length roots in
  let item_ns = sum (fun s -> s.dur) roots in
  let untraced_ns =
    sum (fun (_, st) -> st.untraced_ns) (List.filter fst !item_stats)
  in
  let attributed = sum self (List.filter (fun s -> not (wrapper s.name)) inner) in
  let coverage = attributed /. untraced_ns in
  let overhead = (item_ns -. untraced_ns) /. untraced_ns in
  let per_item ns = ns /. 1e6 /. float (max 1 n_items) in
  Printf.printf
    "traced %s: %d items, %.3f ms/item traced, %.3f ms/item untraced; public \
     calls account for %.1f%% of the untraced item time, oracle and job glue \
     for %.1f%%\n%!"
    main n_items (per_item item_ns) (per_item untraced_ns) (100. *. coverage)
    (100. *. sum self (List.filter (fun s -> wrapper s.name) inner) /. untraced_ns);
  gate (n_items > 0 && abs_float (coverage -. 1.) <= 0.10)
    "traced: public-call spans account for the per-item time within 10%";
  metric "trace.overhead_pct" "%" (100. *. overhead);
  metric "trace.span_coverage_pct" "%" (100. *. coverage);
  metric "trace.items" "count" (float n_items);
  List.iter
    (fun l ->
      metric (l ^ ".self_ms_per_item") "ms"
        (per_item (sum self (List.filter (fun s -> layer_of s.name = l) inner))))
    [ "hw"; "kernel"; "secmodel"; "fuzz"; "channel" ];
  (* Every other family, briefly, for the calls the workload's own items
     never make. *)
  if main <> "fuzz-2dom" then begin
    let k = ref 0 in
    (* enough items that every oracle kind is seen *)
    while
      !k < 24
      || List.exists (fun o -> samples_of ("fuzz.items_" ^ o) = [])
           [ "nonint"; "legacy"; "capacity" ]
    do
      probe_fuzz ~seed:fuzz_seed !k;
      incr k
    done
  end;
  if main <> "topo-8dom" then for k = 0 to 2 do probe_topo ~seed:topo_seed k done;
  List.iteri
    (fun i (cfg, seed) -> if i < 2 then probe_prove_task ~cfg ~seed)
    (prove_tasks a.seed);
  probe_exhaustive ~cfg:Presets.full ~seed:(derive a.seed 0);
  probe_daemon a ~domains ~per_tenant:64;
  let disagree =
    List.length (List.filter (fun (_, st) -> not st.agree) !item_stats)
  in
  gate (disagree = 0)
    "traced: split calls agree with the whole call on every item";
  (* engine: a campaign over the same fuzz items, against their
     sequential item time *)
  let n_fuzz = 96 in
  let item_ns_fuzz =
    let _, t, _ =
      untraced (fun () ->
          for i = 0 to n_fuzz - 1 do
            ignore (Driver.check_one (Scenario.generate ~seed:fuzz_seed i)
                     : (Scenario.t * string) option)
          done)
    in
    t /. float n_fuzz
  in
  let _, camp_ns, _ =
    untraced (fun () -> Driver.campaign ~sup:st.res ~seed:fuzz_seed ~trials:n_fuzz ())
  in
  metric "engine.calibrate_ms" "ms" st.calibrate_ms;
  metric "engine.domains" "count" (float domains);
  metric "engine.overhead_us_per_item" "us"
    (((camp_ns *. float domains /. float n_fuzz) -. item_ns_fuzz) /. 1e3);
  let ps =
    match Sup.pool st.res with
    | Some p -> Pool.stats p
    | None ->
      {
        Pool.pool_size = 1;
        spawned_domains = 0;
        steals = 0;
        tasks_executed = 0;
        tasks_injected = 0;
        minor_heap_words = None;
      }
  in
  metric "engine.tasks_executed" "count" (float ps.Pool.tasks_executed);
  metric "engine.steals" "count" (float ps.Pool.steals);
  (* hw *)
  let med n = median (samples_of n) in
  metric "hw.digest_core_ns" "ns" (med "hw.digest_core");
  metric "hw.digest_core_fold_ns" "ns" (med "hw.digest_core_fold");
  metric "hw.digest_shared_ns" "ns" (med "hw.digest_shared");
  metric "hw.flush_core_local_us" "us" (med "hw.flush_core_local" /. 1e3);
  (* kernel *)
  let steps = samples_of "kernel.steps" in
  metric "kernel.build_us" "us" (mean_dur "kernel.build" /. 1e3);
  metric "kernel.execute_ms" "ms" (mean_dur "kernel.execute" /. 1e6);
  metric "kernel.execute_words" "words" (mean_words "kernel.execute");
  metric "kernel.steps_per_execute" "count" (mean steps);
  metric "kernel.step_ns" "ns"
    (sum self (spans_named "kernel.execute") /. sum Fun.id steps);
  (* secmodel *)
  let bl = List.map snd (prefer_own fst !baseline) in
  let f6 g = mean (List.map g bl) in
  metric "secmodel.sweep_ms" "ms" (mean_dur "secmodel.sweep" /. 1e6);
  metric "secmodel.sweep_self_ms" "ms" (f6 (fun (p, _, s, _, _, _) -> s -. p) /. 1e6);
  metric "secmodel.sweep_self_words" "words" (f6 (fun (_, pw, _, sw, _, _) -> sw -. pw));
  metric "secmodel.lo_boundaries_per_sweep" "count" (mean (samples_of "secmodel.lo_boundaries"));
  metric "secmodel.lo_view_us" "us" (mean_dur "secmodel.lo_view" /. 1e3);
  metric "secmodel.compare_runs_us" "us" (mean_dur "secmodel.compare_runs" /. 1e3);
  metric "secmodel.theorem_collect_ms" "ms" (mean_dur "secmodel.theorem_collect" /. 1e6);
  metric "secmodel.exhaustive_ms" "ms" (mean_dur "secmodel.exhaustive" /. 1e6);
  (* fuzz *)
  metric "fuzz.generate_us" "us" (mean_dur "fuzz.generate" /. 1e3);
  metric "fuzz.check_nonint_ms" "ms" (mean_dur "fuzz.check_nonint" /. 1e6);
  metric "fuzz.check_nonint_words" "words" (mean_words "fuzz.check_nonint");
  metric "fuzz.check_legacy_ms" "ms" (mean_dur "fuzz.check_legacy" /. 1e6);
  metric "fuzz.check_legacy_words" "words" (mean_words "fuzz.check_legacy");
  metric "fuzz.check_capacity_ms" "ms" (mean_dur "fuzz.check_capacity" /. 1e6);
  metric "fuzz.check_topology_ms" "ms" (mean_dur "fuzz.check_topology" /. 1e6);
  metric "fuzz.check_topology_words" "words" (mean_words "fuzz.check_topology");
  List.iter
    (fun o ->
      metric ("fuzz.items_" ^ o) "count"
        (float (List.length (samples_of ("fuzz.items_" ^ o)))))
    [ "nonint"; "legacy"; "capacity" ];
  (* ROADMAP's baseline table, per nonint item and per topology, the
     whole oracles untraced. *)
  let tb = List.map snd (prefer_own fst !topo_baseline) in
  Printf.printf "baseline (%d nonint items, %d topologies):\n" (List.length bl)
    (List.length tb);
  let row name ms w = Printf.printf "  %-36s %9.3f ms %12.0f words\n" name ms w in
  row "two kernel executions" (f6 (fun (p, _, _, _, _, _) -> p) /. 1e6)
    (f6 (fun (_, pw, _, _, _, _) -> pw));
  row "full Unwinding.sweep_pair" (f6 (fun (_, _, s, _, _, _) -> s) /. 1e6)
    (f6 (fun (_, _, _, sw, _, _) -> sw));
  row "Oracle.check_nonint" (f6 (fun (_, _, _, _, c, _) -> c) /. 1e6)
    (f6 (fun (_, _, _, _, _, cw) -> cw));
  row "Oracle.check_topology" (mean (List.map fst tb) /. 1e6) (mean (List.map snd tb));
  let path =
    Filename.concat a.work_dir
      (Printf.sprintf "spans-%s-%d.tsv" main a.seed)
  in
  write_spans path;
  Printf.printf "spans written to %s (%d spans)\n" path (List.length !spans);
  (List.length !item_stats, disagree)

(* ------------------------------------------------------------------ *)

let () =
  let a = parse_args () in
  let domains = pinned_domains in
  mkdir_p a.work_dir;
  let attempted, failed =
    match a.workload with
    | "serve-mixed" when not a.trace -> run_serve a ~domains
    | ("fuzz-2dom" | "topo-8dom" | "serve-mixed") as w ->
      let st = setup ~domains in
      print_env a ~host:st.host ~pinned:domains;
      Printf.printf "setup: %.4f s (calibrate %.2f ms)\n%!" st.setup_s
        st.calibrate_ms;
      let r =
        if a.trace then run_traced a st ~domains
        else if w = "fuzz-2dom" then run_fuzz a st
        else run_topo a st
      in
      Sup.shutdown st.res;
      r
    | w -> failwith ("unknown workload " ^ w)
  in
  print_result ~attempted ~failed
