(** The standard verification scenario for the Sect. 5.2 proof stack.

    Historically this was a hardwired Hi/Lo pair: two domains on one
    core, Hi running a *random program derived from the secret* (so
    different secrets mean genuinely different load/store/branch/syscall
    behaviour, not just different operands), Lo a fixed observer that
    reads the clock, times loads, takes traps and branches across
    several of its slices.  Noninterference demands Lo's complete view
    be identical for every secret.

    The construction is now record-parameterised: {!build_spec} takes a
    {!spec} describing any N-domain/M-core system (per-domain cores,
    colour budgets, slices, regions, programs, IRQ ownership, per-core
    schedules, and an optional post-boot tweak hook), and the legacy
    two-domain entry points are thin specs over it — they produce
    bit-identical kernels to their historical hand-rolled bodies, so
    golden outputs are unaffected. *)

open Tpro_kernel
open Tpro_secmodel

val slice : int
val pad : int

val machine_config : seed:int -> Tpro_hw.Machine.config
(** The scenario's machine: a small 4-colour LLC so the sampled programs
    can actually collide when colouring is off. *)

val machine_config_with :
  with_btb:bool -> seed:int -> Tpro_hw.Machine.config
(** {!machine_config} with an optional 64-entry BTB, so [tpro prove]
    covers every registered resource kind (the BTB is off in the
    standard scenario to keep the golden experiment outputs stable). *)

val hi_program : secret:int -> Program.t
(** Hi's secret-dependent behaviour (interrupt arming, kernel-path
    choice, page sweep, random tail). *)

val observer : Program.t
(** Lo's fixed observer program. *)

type domain_spec = {
  core : int option;       (** hosting core ([None] = kernel default) *)
  n_colours : int option;  (** colour budget ([None] = kernel default) *)
  slice : int;
  pad_cycles : int;
  regions : (int * int) list;  (** [(vbase, pages)] to back, in order *)
  programs : Program.t list;   (** threads to spawn, in order *)
  irqs : int list;             (** IRQ lines this domain owns *)
  observer : bool;  (** include this domain's threads in the run's observers *)
}

type spec = {
  machine : Tpro_hw.Machine.config;
  cfg : Kernel.config;
  n_endpoints : int option;
  n_irqs : int option;
  schedules : (int * int array) list;
      (** [(core, order)] replacing that core's creation-order schedule *)
  domains : domain_spec list;
  tweak : (Kernel.t -> unit) option;
      (** runs after boot-time configuration, before any thread is
          spawned — the hook used e.g. to plant a miscoloured frame *)
}

val domain_spec :
  ?core:int ->
  ?n_colours:int ->
  ?regions:(int * int) list ->
  ?programs:Program.t list ->
  ?irqs:int list ->
  ?observer:bool ->
  slice:int ->
  pad_cycles:int ->
  unit ->
  domain_spec

val spec :
  ?n_endpoints:int ->
  ?n_irqs:int ->
  ?schedules:(int * int array) list ->
  ?tweak:(Kernel.t -> unit) ->
  machine:Tpro_hw.Machine.config ->
  cfg:Kernel.config ->
  domain_spec list ->
  spec

val build_spec : spec -> Nonint.run
(** Boot a kernel from [spec]: create every domain (in list order —
    colour and clone assignment follow creation order), map every
    region, install IRQ owners then schedules, run [tweak], then spawn
    all programs domain-major.  The run's observers are the threads of
    the [observer]-flagged domains.  Raises [Invalid_argument] on an
    invalid schedule (see {!Kernel.set_schedule}). *)

val build : cfg:Kernel.config -> seed:int -> secret:int -> Nonint.run
(** [seed] selects the latency function; [secret] seeds Hi's program.
    Equivalent to {!build_spec} on the classic two-domain spec. *)

val build_with :
  with_btb:bool -> cfg:Kernel.config -> seed:int -> secret:int -> Nonint.run

val build_with_program :
  cfg:Kernel.config -> seed:int -> hi_prog:Program.t -> Nonint.run
(** Compact variant for the exhaustive checker: Hi runs exactly
    [hi_prog]; Lo runs a short observer.  Small slices keep each
    execution cheap enough to enumerate hundreds of programs. *)

val build_with_program_on :
  with_btb:bool ->
  cfg:Kernel.config ->
  seed:int ->
  hi_prog:Program.t ->
  Nonint.run

val default_secrets : int list
val default_seeds : int list
