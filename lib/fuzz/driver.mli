(** Trial fan-out, mutant-kill search and counterexample shrinking.

    Trials are independent (each builds fresh kernels), so they fan out
    over a {!Tpro_engine.Pool} with bit-identical results to the
    sequential path.  Every failure is minimised with {!Shrink.minimise}
    before being reported, ready to be persisted as a replay file. *)

type failure = {
  scenario : Scenario.t;  (** the originally failing scenario *)
  message : string;
  shrunk : Scenario.t;  (** minimised, still failing *)
  shrunk_message : string;
}

val check_one : Scenario.t -> (Scenario.t * string) option
(** [None] on pass, [Some (scenario, message)] on failure. *)

val fuzz_trial :
  fuel:Tpro_engine.Supervisor.Fuel.t ->
  seed:int ->
  mutant:Scenario.mutant ->
  int ->
  (Scenario.t * string) option
(** Trial [i] of [seed]: generate the scenario, charge [fuel] its
    {!Scenario.size}, {!check_one} it.  The one task behind every fuzz
    campaign, search and serve job. *)

val run :
  ?pool:Tpro_engine.Pool.t ->
  ?mutant:Scenario.mutant ->
  seed:int ->
  trials:int ->
  unit ->
  failure list
(** Run trials [0 .. trials-1] of [seed]; shrink and report every
    failure.  Empty list = zero oracle violations.  This and
    {!first_failure} (and their topology twins) are one block-scanning
    search over {!fuzz_trial}. *)

val first_failure :
  ?pool:Tpro_engine.Pool.t ->
  ?mutant:Scenario.mutant ->
  seed:int ->
  budget:int ->
  unit ->
  (int * failure) option
(** Scan trials in order until one fails; [Some (trials_used, failure)]
    with [trials_used] the failing trial's 1-based position.  The
    mutant-kill validation demands [Some] within its budget. *)

type task_failure = {
  trial : int;
  error : Tpro_engine.Supervisor.task_error;
}
(** A trial whose task the supervisor had to settle as an error (after
    retries): its verdict is unknown, which the campaign reports
    rather than hides. *)

type campaign = {
  failures : failure list;  (** shrunk oracle violations, trial order *)
  trials : int;
  resumed_from : int;  (** trials skipped thanks to a checkpoint; 0 = fresh *)
  task_failures : task_failure list;
  notes : string list;  (** resume/restart decisions, for the operator *)
}

val campaign :
  sup:Tpro_engine.Supervisor.t ->
  ?mutant:Scenario.mutant ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:bool ->
  seed:int ->
  trials:int ->
  unit ->
  campaign
(** Supervised, crash-safe campaign: a {!Tpro_engine.Campaign} of kind
    [fuzz] that records progress (header [seed]/[mutant], [done N], one
    [fail <i>] per failing trial), checkpointed every [checkpoint_every]
    (default 200) trials.  Everything regenerates from trial indices,
    so a resumed campaign's report — shrunk counterexamples included —
    is bit-identical to an uninterrupted run's. *)

val pp_failure : Format.formatter -> failure -> unit

(** {2 Topology campaigns}

    The N-domain/M-core generalisation: each trial generates a
    {!Topology} and runs {!Oracle.check_topology}'s pairwise sweep over
    it.  Failures are not shrunk — a topology's fields are deeply
    cross-dependent (schedules are permutations of per-core residents,
    IPC endpoints are edge-list positions, the focus/capacity/miscolour
    domains index the domain array), so field-local shrinking almost
    never preserves well-formedness, and the [(seed, idx)] pair plus the
    saved format-2 replay file is already a complete reproducer. *)

type topo_failure = { topology : Topology.t; topo_message : string }

val check_one_topo : Topology.t -> topo_failure option

val topo_trial :
  fuel:Tpro_engine.Supervisor.Fuel.t ->
  seed:int ->
  mutant:Scenario.mutant ->
  max_domains:int ->
  max_cores:int ->
  int ->
  topo_failure option
(** As {!fuzz_trial}, for topologies: generate, charge
    {!Topology.size}, {!check_one_topo}. *)

val topo_run :
  ?pool:Tpro_engine.Pool.t ->
  ?mutant:Scenario.mutant ->
  ?max_domains:int ->
  ?max_cores:int ->
  seed:int ->
  trials:int ->
  unit ->
  topo_failure list
(** Trials [0 .. trials-1]; empty list = zero pairwise violations. *)

val topo_first_failure :
  ?pool:Tpro_engine.Pool.t ->
  ?mutant:Scenario.mutant ->
  ?max_domains:int ->
  ?max_cores:int ->
  seed:int ->
  budget:int ->
  unit ->
  (int * topo_failure) option
(** As {!first_failure}, for topologies. *)

type topo_campaign = {
  topo_failures : topo_failure list;  (** violations, trial order *)
  topo_trials : int;
  topo_resumed_from : int;
  topo_task_failures : task_failure list;
  topo_notes : string list;
}

val topo_campaign :
  sup:Tpro_engine.Supervisor.t ->
  ?mutant:Scenario.mutant ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:bool ->
  ?max_domains:int ->
  ?max_cores:int ->
  seed:int ->
  trials:int ->
  unit ->
  topo_campaign
(** As {!campaign}, kind [topo] (the header adds [domains]/[cores]),
    checkpointed every 50 trials by default: a topology trial is about
    an order of magnitude heavier than a scenario trial. *)

val pp_topo_failure : Format.formatter -> topo_failure -> unit
