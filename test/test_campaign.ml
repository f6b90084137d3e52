(* The checkpointed campaign loop, pinned from the outside.

   Two halves:

   - Payload fixtures.  [fixtures/ckpt_*.ckpt] were written by the
     [tpro] commands below before the four campaigns shared one loop.
     The same commands must still write them byte for byte, and a run
     resumed from each fixture must print exactly what an
     uninterrupted run prints.
   - One resume-policy table over all four campaign kinds (fuzz, topo,
     prove, the experiment sweep): a missing file, a corrupt file, a
     torn write, every mismatched header parameter and an over-long
     [done] count must each restart the campaign from scratch with a
     note, while a matching checkpoint really is resumed. *)

module Supervisor = Tpro_engine.Supervisor

let tpro = Filename.concat (Filename.concat ".." "bin") "tpro.exe"

let run ?(stdout = Filename.null) args =
  Sys.command
    (Filename.quote_command tpro ~stdout ~stderr:Filename.null args)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_tmps n f =
  let paths =
    List.init n (fun _ ->
        let p = Filename.temp_file "tpro-campaign" ".tmp" in
        Sys.remove p;
        p)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths)
    (fun () -> f paths)

(* ------------------------------------------------------------------ *)
(* Payload fixtures                                                     *)

type fixture = {
  kind_name : string;
  file : string;
  exit_code : int;  (** what the writing run and both replays exit with *)
  args : out:string -> string list;
      (** the run that wrote the fixture (without [--checkpoint]) *)
  resume_args : out:string -> string list;
      (** a run that continues past the fixture (or repeats it) *)
}

let fixtures =
  [
    {
      kind_name = "fuzz";
      file = "ckpt_fuzz_skip_flush.ckpt";
      exit_code = 1;
      args =
        (fun ~out ->
          [
            "fuzz"; "--trials"; "6"; "--seed"; "42"; "--mutant"; "skip-flush";
            "--checkpoint-every"; "3"; "-j"; "1"; "--out"; out;
          ]);
      resume_args =
        (fun ~out ->
          [
            "fuzz"; "--trials"; "9"; "--seed"; "42"; "--mutant"; "skip-flush";
            "--checkpoint-every"; "3"; "-j"; "1"; "--out"; out;
          ]);
    };
    {
      kind_name = "topo";
      file = "ckpt_topo_4x2.ckpt";
      exit_code = 0;
      args =
        (fun ~out ->
          [
            "topo"; "--trials"; "20"; "--seed"; "42"; "--domains"; "4";
            "--cores"; "2"; "--checkpoint-every"; "10"; "-j"; "1"; "--out";
            out;
          ]);
      resume_args =
        (fun ~out ->
          [
            "topo"; "--trials"; "30"; "--seed"; "42"; "--domains"; "4";
            "--cores"; "2"; "--checkpoint-every"; "10"; "-j"; "1"; "--out";
            out;
          ]);
    };
    {
      kind_name = "exp";
      file = "ckpt_exp_e10.ckpt";
      exit_code = 0;
      args = (fun ~out:_ -> [ "exp"; "e10"; "-j"; "1" ]);
      resume_args = (fun ~out:_ -> [ "exp"; "e10"; "-j"; "1" ]);
    };
    {
      kind_name = "prove";
      file = "ckpt_prove_smoke.ckpt";
      exit_code = 2;
      args = (fun ~out:_ -> [ "prove"; "--smoke"; "-j"; "1" ]);
      resume_args = (fun ~out:_ -> [ "prove"; "--smoke"; "-j"; "1" ]);
    };
  ]

let fixture_path f = Filename.concat "fixtures" f.file

let test_payload_bytes f () =
  with_tmps 2 (fun paths ->
      let ckpt, out = (List.nth paths 0, List.nth paths 1) in
      Alcotest.(check int) "exit code" f.exit_code
        (run (f.args ~out @ [ "--checkpoint"; ckpt ]));
      Alcotest.(check string)
        (f.file ^ ": payload byte-identical to the fixture")
        (read_file (fixture_path f))
        (read_file ckpt))

let test_resume_from_fixture f () =
  with_tmps 4 (fun paths ->
      match paths with
      | [ ckpt; out; ref_out; res_out ] ->
        Alcotest.(check int) "uninterrupted exit code" f.exit_code
          (run ~stdout:ref_out (f.resume_args ~out));
        write_file ckpt (read_file (fixture_path f));
        Alcotest.(check int) "resumed exit code" f.exit_code
          (run ~stdout:res_out (f.resume_args ~out @ [ "--resume"; ckpt ]));
        Alcotest.(check string)
          (f.file ^ ": resumed stdout byte-identical to uninterrupted")
          (read_file ref_out) (read_file res_out)
      | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Resume-policy table                                                  *)

(* One campaign kind as the policy sees it: run it (optionally
   resuming) with some parameter set, and read back how many tasks the
   checkpoint let it skip plus the notes it emitted. *)
type 'p kind = {
  name : string;
  base : 'p;
  run_kind : sup:Supervisor.t -> checkpoint:string -> resume:bool -> 'p ->
    int * string list;
  mismatches : (string * 'p) list;  (** one per header parameter *)
  overlong : 'p option;
      (** parameters asking for fewer tasks than the base run recorded
          as done (kinds that record progress only) *)
}

type fuzz_p = { seed : int; mutant : Tpro_fuzz.Scenario.mutant; trials : int }

type topo_p = {
  t_seed : int;
  t_mutant : Tpro_fuzz.Scenario.mutant;
  domains : int;
  cores : int;
  t_trials : int;
}

type prove_p = {
  seeds : int list;
  secrets : int list;
  presets : (string * Tpro_kernel.Kernel.config) list;
}

let fuzz_kind =
  {
    name = "fuzz";
    base = { seed = 3; mutant = Tpro_fuzz.Scenario.No_mutant; trials = 3 };
    run_kind =
      (fun ~sup ~checkpoint ~resume p ->
        let c =
          Tpro_fuzz.Driver.campaign ~sup ~mutant:p.mutant ~checkpoint ~resume
            ~checkpoint_every:2 ~seed:p.seed ~trials:p.trials ()
        in
        (c.Tpro_fuzz.Driver.resumed_from, c.Tpro_fuzz.Driver.notes));
    mismatches =
      [
        ("seed", { seed = 4; mutant = Tpro_fuzz.Scenario.No_mutant; trials = 3 });
        ( "mutant",
          { seed = 3; mutant = Tpro_fuzz.Scenario.Miscolour; trials = 3 } );
      ];
    overlong =
      Some { seed = 3; mutant = Tpro_fuzz.Scenario.No_mutant; trials = 2 };
  }

let topo_base =
  {
    t_seed = 3;
    t_mutant = Tpro_fuzz.Scenario.No_mutant;
    domains = 4;
    cores = 2;
    t_trials = 3;
  }

let topo_kind =
  {
    name = "topo";
    base = topo_base;
    run_kind =
      (fun ~sup ~checkpoint ~resume p ->
        let c =
          Tpro_fuzz.Driver.topo_campaign ~sup ~mutant:p.t_mutant ~checkpoint
            ~resume ~checkpoint_every:2 ~max_domains:p.domains
            ~max_cores:p.cores ~seed:p.t_seed ~trials:p.t_trials ()
        in
        (c.Tpro_fuzz.Driver.topo_resumed_from, c.Tpro_fuzz.Driver.topo_notes));
    mismatches =
      [
        ("seed", { topo_base with t_seed = 4 });
        ("mutant", { topo_base with t_mutant = Tpro_fuzz.Scenario.Miscolour });
        ("--domains", { topo_base with domains = 3 });
        ("--cores", { topo_base with cores = 1 });
      ];
    overlong = Some { topo_base with t_trials = 2 };
  }

let preset name =
  (name, List.assoc name Time_protection.Presets.standard)

let prove_base = { seeds = [ 0 ]; secrets = [ 0; 1 ]; presets = [ preset "full" ] }

let prove_kind =
  {
    name = "prove";
    base = prove_base;
    run_kind =
      (fun ~sup ~checkpoint ~resume p ->
        let o =
          Time_protection.Prove.run ~sup ~checkpoint ~resume ~exhaustive:false
            ~seeds:p.seeds ~secrets:p.secrets ~presets:p.presets ()
        in
        (o.Time_protection.Prove.resumed_tasks, o.Time_protection.Prove.notes));
    mismatches =
      [
        ("seeds", { prove_base with seeds = [ 1 ] });
        ("secrets", { prove_base with secrets = [ 0; 2 ] });
        ("presets", { prove_base with presets = [ preset "none" ] });
      ];
    overlong = None;
  }

let exp_kind =
  {
    name = "exp";
    base = [ 0; 1 ];
    run_kind =
      (fun ~sup ~checkpoint ~resume seeds ->
        let sw =
          Time_protection.Experiments.run_supervised ~seeds ~sup ~checkpoint
            ~resume ~only:[ "e10" ] ()
        in
        ( sw.Time_protection.Experiments.sweep_resumed,
          sw.Time_protection.Experiments.sweep_notes ));
    mismatches = [ ("seeds", [ 0; 2 ]) ];
    overlong = None;
  }

let mentions needle hay =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* Every policy row of one kind: each corrupts or mismatches the
   checkpoint a base run left behind, resumes, and demands a restart
   from scratch plus a note saying so. *)
let policy_rows k =
  let with_sup f = Supervisor.with_supervisor ~domains:1 f in
  let write_base path =
    ignore
      (with_sup (fun sup ->
           k.run_kind ~sup ~checkpoint:path ~resume:false k.base))
  in
  let resume_with path p =
    with_sup (fun sup -> k.run_kind ~sup ~checkpoint:path ~resume:true p)
  in
  let expect_restart what (resumed, notes) =
    Alcotest.(check int) (k.name ^ ", " ^ what ^ ": restarted") 0 resumed;
    Alcotest.(check bool)
      (k.name ^ ", " ^ what ^ ": a note says so")
      true
      (List.exists (mentions "from scratch") notes)
  in
  let damaged what damage =
    ( what,
      fun path ->
        write_base path;
        damage path;
        expect_restart what (resume_with path k.base) )
  in
  [
    ( "matching checkpoint (control)",
      fun path ->
        write_base path;
        let resumed, notes = resume_with path k.base in
        Alcotest.(check bool) (k.name ^ ": matching checkpoint resumed") true
          (resumed > 0);
        Alcotest.(check bool) (k.name ^ ": resume noted") true (notes <> []) );
    ( "missing file",
      fun path -> expect_restart "missing file" (resume_with path k.base) );
    damaged "corrupt file" (fun path ->
        write_file path "this is not a checkpoint\n");
    damaged "torn write" (fun path ->
        let s = read_file path in
        write_file path (String.sub s 0 (String.length s - 7)));
  ]
  @ List.map
      (fun (param, p) ->
        ( "mismatched " ^ param,
          fun path ->
            write_base path;
            expect_restart ("mismatched " ^ param) (resume_with path p) ))
      k.mismatches
  @
  match k.overlong with
  | None -> []
  | Some p ->
    [
      ( "over-long done",
        fun path ->
          write_base path;
          expect_restart "over-long done" (resume_with path p) );
    ]

let test_resume_policy k () =
  List.iter
    (fun (_, row) -> with_tmps 1 (fun paths -> row (List.hd paths)))
    (policy_rows k)

(* Items naming none of this run's tasks are dropped on resume: a sweep
   resumed with another selection reuses the tables it shares, computes
   the rest, and its next snapshot no longer carries the others. *)
let test_resume_keeps_own_tasks () =
  with_tmps 1 (fun paths ->
      let path = List.hd paths in
      let sweep ~resume only =
        Supervisor.with_supervisor ~domains:1 (fun sup ->
            Time_protection.Experiments.run_supervised ~seeds:[ 0 ] ~sup
              ~checkpoint:path ~resume ~only ())
      in
      ignore (sweep ~resume:false [ "e10"; "e16" ]);
      let sw = sweep ~resume:true [ "e10"; "e11" ] in
      Alcotest.(check int) "the shared table is reused" 1
        sw.Time_protection.Experiments.sweep_resumed;
      let text = read_file path in
      Alcotest.(check (list bool)) "snapshot holds e10 and e11, not e16"
        [ true; true; false ]
        (List.map
           (fun id -> mentions ("\ntable " ^ id ^ " ") text)
           [ "e10"; "e11"; "e16" ]))

let suite =
  List.concat_map
    (fun f ->
      [
        Alcotest.test_case (f.kind_name ^ " fixture: payload bytes") `Quick
          (test_payload_bytes f);
        Alcotest.test_case (f.kind_name ^ " fixture: resume stdout") `Quick
          (test_resume_from_fixture f);
      ])
    fixtures
  @ [
      Alcotest.test_case "resume policy: fuzz" `Quick
        (test_resume_policy fuzz_kind);
      Alcotest.test_case "resume policy: topo" `Quick
        (test_resume_policy topo_kind);
      Alcotest.test_case "resume policy: prove" `Quick
        (test_resume_policy prove_kind);
      Alcotest.test_case "resume policy: exp" `Quick
        (test_resume_policy exp_kind);
      Alcotest.test_case "resume drops items of other tasks" `Quick
        test_resume_keeps_own_tasks;
    ]
