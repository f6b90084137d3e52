(* The checkpointed campaign loop: resume policy, chunked supervised
   fan-out, a save after every chunk.  The payload grammar and the
   policy are documented in the interface. *)

type entry = Skip | Mark | Blob of string

type ('t, 'b) spec = {
  kind : string;
  params : (string * string) list;
  progress : bool;
  tag : string;
  label : string;
  chunk : int;
  key : 't -> string;
  id : 't -> int;
  task : fuel:Supervisor.Fuel.t -> 't -> 'b;
  entry : 'b -> entry;
  decode : string option -> ('b, string) result;
}

type ('t, 'b) outcome = {
  recorded : ('t * 'b) list;
  failed : ('t * Supervisor.task_error) list;
  resumed : int;
  notes : string list;
}

let ( let* ) = Result.bind

let split_word s =
  match String.index_opt s ' ' with
  | None -> (s, None)
  | Some i ->
    (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))

let line k v = k ^ " " ^ v

let payload spec ~done_ items =
  let item = function
    | key, None -> line spec.tag key
    | key, Some b -> line spec.tag (line key (Checkpoint.escape b))
  in
  String.concat "\n"
    (List.map (fun (k, v) -> line k v) (("kind", spec.kind) :: spec.params)
    @ (if spec.progress then [ line "done" (string_of_int done_) ] else [])
    @ List.map item items)
  ^ "\n"

(* The header must match this run line for line; then an optional
   [done]; then the items, each decoded, so a damaged blob rejects the
   whole checkpoint rather than one task.  Returns (done, items). *)
let parse spec text =
  let rec header expected lines =
    match (expected, lines) with
    | [], rest -> Ok rest
    | (k, _) :: _, [] -> Error (Printf.sprintf "no `%s` line" k)
    | (k, v) :: expected, l :: rest -> (
      match split_word l with
      | k', Some v' when k' = k && v' = v -> header expected rest
      | "kind", Some v' when k = "kind" ->
        Error (Printf.sprintf "checkpoint is a %s campaign, not %s" v' v)
      | k', Some _ when k' = k ->
        Error ("checkpoint was written for a different " ^ k)
      | _ -> Error (Printf.sprintf "expected a `%s` line, found `%s`" k l))
  in
  let item l =
    match split_word l with
    | tag, Some rest when tag = spec.tag ->
      let key, blob = split_word rest in
      let* blob =
        match Option.map Checkpoint.unescape blob with
        | Some None -> Error ("malformed escape in item " ^ key)
        | b -> Ok (Option.join b)
      in
      let* v = Result.map_error (( ^ ) ("item " ^ key ^ ": ")) (spec.decode blob) in
      Ok (key, blob, v)
    | _ -> Error ("unknown line: " ^ l)
  in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  let* rest = header (("kind", spec.kind) :: spec.params) lines in
  let* done_, rest =
    match rest with
    | l :: rest when fst (split_word l) = "done" -> (
      match Option.bind (snd (split_word l)) int_of_string_opt with
      | Some n -> Ok (n, rest)
      | None -> Error ("malformed line: " ^ l))
    | _ when spec.progress -> Error "checkpoint has no `done` count"
    | rest -> Ok (0, rest)
  in
  let* items =
    List.fold_right
      (fun l acc ->
        let* acc = acc in
        let* it = item l in
        Ok (it :: acc))
      rest (Ok [])
  in
  Ok (done_, items)

(* [Some (done, items)] to resume, [None] to start from scratch; either
   way the decision is noted. *)
let load spec ~path ~n_tasks note =
  let restart why =
    note (Printf.sprintf "checkpoint rejected (%s); restarting from scratch" why);
    None
  in
  match Checkpoint.load ~path with
  | Error (Checkpoint.Io msg) ->
    note (Printf.sprintf "no checkpoint to resume (%s); starting from scratch" msg);
    None
  | Error e -> restart (Checkpoint.error_to_string e)
  | Ok text -> (
    match parse spec text with
    | Error why -> restart why
    | Ok (d, _) when d > n_tasks ->
      restart
        (Printf.sprintf "it records %d tasks done but only %d were requested" d
           n_tasks)
    | Ok loaded -> Some loaded)

let rec take n = function
  | x :: rest when n > 0 ->
    let xs, rest = take (n - 1) rest in
    (x :: xs, rest)
  | rest -> ([], rest)

let run ~sup ?checkpoint ?(resume = false) spec tasks =
  let notes = ref [] in
  let note msg = notes := msg :: !notes in
  let n_tasks = List.length tasks in
  let loaded =
    match checkpoint with
    | Some path when resume -> load spec ~path ~n_tasks note
    | Some _ | None -> None
  in
  let done0, items = Option.value loaded ~default:(0, []) in
  (* keep the first item naming each of this run's tasks; drop the rest *)
  let by_key = Hashtbl.create 16 in
  if items <> [] then
    List.iter (fun t -> Hashtbl.replace by_key (spec.key t) t) tasks;
  let seen = Hashtbl.create 16 in
  let recorded0 =
    List.filter_map
      (fun (key, blob, v) ->
        match Hashtbl.find_opt by_key key with
        | Some t when not (Hashtbl.mem seen key) ->
          Hashtbl.add seen key ();
          Some ((t, v), (key, blob))
        | Some _ | None -> None)
      items
  in
  let todo =
    List.filteri
      (fun i t ->
        i >= done0 && (recorded0 = [] || not (Hashtbl.mem seen (spec.key t))))
      tasks
  in
  let resumed = n_tasks - List.length todo in
  if Option.is_some loaded then
    note
      (Printf.sprintf "resumed %s campaign: %d of %d tasks already settled"
         spec.kind resumed n_tasks);
  (* both newest first; [recorded] pairs each result with its item *)
  let recorded = ref (List.rev recorded0) and failed = ref [] in
  let save done_ =
    Option.iter
      (fun path ->
        Supervisor.checkpoint_save sup ~path
          (payload spec ~done_ (List.rev_map snd !recorded)))
      checkpoint
  in
  let rec loop done_ = function
    | [] -> ()
    | todo ->
      let chunk, rest = take (max 1 spec.chunk) todo in
      List.iter2
        (fun t -> function
          | Error e -> failed := (t, e) :: !failed
          | Ok v -> (
            let item blob = ((t, v), (spec.key t, blob)) in
            match spec.entry v with
            | Skip -> ()
            | Mark -> recorded := item None :: !recorded
            | Blob b -> recorded := item (Some b) :: !recorded))
        chunk
        (Supervisor.run sup ~label:spec.label ~key:spec.id spec.task chunk);
      let done_ = done_ + List.length chunk in
      save done_;
      loop done_ rest
  in
  loop done0 todo;
  {
    recorded = List.rev_map fst !recorded;
    failed = List.rev !failed;
    resumed;
    notes = List.rev !notes;
  }
