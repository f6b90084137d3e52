(** The experiment suite: one table per claim of the paper.

    The paper (a HotOS vision paper) has a single figure and no
    quantitative tables; DESIGN.md §3 maps each of its claims to one of
    the experiments E1–E20, and each table carries its paper anchor.
    Every table is reached through {!by_id} (and so through
    {!run_supervised} and {!run_table}).  Capacities are Blahut–Arimoto
    estimates in bits per channel use; "0.000" means the defence closed
    the channel on the sampled universe. *)

val default_seeds : int list
(** Latency-function seeds used as trials (default 0..7). *)

val ids : string list

type sweep = {
  tables :
    (string * (Table.t, Tpro_engine.Supervisor.task_error) result) list;
      (** one entry per selected experiment, in E-number order; a table
          whose task failed (after retries) settles as [Error] instead
          of aborting the sweep *)
  sweep_resumed : int;  (** tables reused from the checkpoint *)
  sweep_notes : string list;  (** resume/restart decisions *)
}

val run_supervised :
  ?seeds:int list ->
  sup:Tpro_engine.Supervisor.t ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?only:string list ->
  unit ->
  sweep
(** The one experiment driver, behind [tpro all] and [tpro exp]: a
    {!Tpro_engine.Campaign} recording per-task results (kind [exp],
    header [seeds], one [table <id> <body>] per settled table).  Each
    table is one supervised task (key = its position in the selection)
    whose trial grid fans out over the supervisor's pool.  Without
    [?checkpoint] all tables are one chunk and fan out together; with
    it, each table is a chunk, saved as it settles and reloaded
    byte-identically on [~resume:true].  [?only] restricts the sweep to
    the given lowercase ids; [?seeds] reaches each table as through
    {!by_id}. *)

val by_id :
  string ->
  (?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t) option
(** Experiments that have no trial grid ignore [?pool]. *)

val run_table :
  fuel:Tpro_engine.Supervisor.Fuel.t ->
  ?seeds:int list ->
  ?pool:Tpro_engine.Pool.t ->
  string ->
  (Table.t, string) result
(** One table task: {!by_id}, charged to [fuel]; [Error] names an
    unknown id.  Shared by {!run_supervised} and the serve daemon's
    [table] jobs. *)
