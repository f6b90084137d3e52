(** The one checkpointed campaign loop behind [tpro fuzz], [topo],
    [prove] and the experiment sweep.

    A campaign is a list of independent, deterministic tasks, run
    through {!Supervisor.run} one chunk at a time.  With a checkpoint
    path, a crash-safe {!Checkpoint} is saved after every chunk, and a
    resumed campaign skips the settled tasks and ends bit-identical to
    an uninterrupted one.

    Payload grammar:
    {v
    kind <kind>
    <param> <value>        one line per header parameter, in order
    done <N>               kinds that record progress: tasks < N settled
    <tag> <key>[ <blob>]   one line per recorded task
    v}
    Kinds that record progress (fuzz, topo) write [done] and a blob-less
    item per failing trial.  Kinds that record per-task results (prove,
    the sweep) write one item per settled task, its result as an
    escaped blob.

    Resume policy: a missing file starts fresh; a {!Checkpoint.error}, a
    payload that does not parse, a header that differs from this run's
    or a [done] larger than the task list restarts from scratch;
    otherwise the run resumes, dropping items that name none of its
    tasks.  Each decision adds a note. *)

(** How one settled task is recorded. *)
type entry =
  | Skip  (** not recorded (a passing trial) *)
  | Mark  (** [<tag> <key>] *)
  | Blob of string  (** [<tag> <key> <escaped blob>] *)

type ('t, 'b) spec = {
  kind : string;
  params : (string * string) list;  (** header lines after [kind] *)
  progress : bool;  (** write [done N] *)
  tag : string;
  label : string;  (** the {!Supervisor.run} cost-model label *)
  chunk : int;  (** tasks per {!Supervisor.run} call and per save *)
  key : 't -> string;  (** item key, unique per task *)
  id : 't -> int;  (** supervisor task key *)
  task : fuel:Supervisor.Fuel.t -> 't -> 'b;
  entry : 'b -> entry;
  decode : string option -> ('b, string) result;
      (** an item's unescaped blob back to its result *)
}

type ('t, 'b) outcome = {
  recorded : ('t * 'b) list;
      (** recorded tasks: reloaded ones first, then new ones as they
          settled *)
  failed : ('t * Supervisor.task_error) list;  (** in task order *)
  resumed : int;  (** tasks the checkpoint let the run skip *)
  notes : string list;  (** resume/restart decisions *)
}

val run :
  sup:Supervisor.t ->
  ?checkpoint:string ->
  ?resume:bool ->
  ('t, 'b) spec ->
  't list ->
  ('t, 'b) outcome
(** Without [?checkpoint] nothing is read or written. *)
