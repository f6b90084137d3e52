(* The supervision layer's own guarantees, proved through the
   engine-level fault-injection matrix: every injected fault (task
   raises once/always, task hangs past its fuel budget, duplicate
   submission, torn checkpoint write, worker-spawn failure) must be
   detected and reported — never silently absorbed — and the recovery
   paths (retry, degrade-to-sequential, restart-from-scratch) must
   leave campaign output bit-identical to a run that never faulted. *)

open Tpro_engine

let sq ~fuel:_ x = (x * x) + 1

let results_testable =
  Alcotest.(list (result int (testable (Fmt.of_to_string Supervisor.task_error_to_string) ( = ))))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_tmp f =
  let path = Filename.temp_file "tpro-sup" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Basic supervised fan-out                                            *)

let test_run_basic () =
  Supervisor.with_supervisor ~domains:3 (fun sup ->
      let xs = List.init 50 Fun.id in
      let got = Supervisor.run sup ~key:Fun.id sq xs in
      Alcotest.check results_testable "all ok, input order"
        (List.map (fun x -> Ok ((x * x) + 1)) xs)
        got;
      let s = Supervisor.summary sup in
      Alcotest.(check int) "total" 50 s.Supervisor.total;
      Alcotest.(check int) "ok" 50 s.Supervisor.ok;
      Alcotest.(check int) "failed" 0 s.Supervisor.failed;
      Alcotest.(check bool) "not degraded" false s.Supervisor.degraded)

let test_sequential_matches_parallel () =
  let xs = List.init 40 Fun.id in
  let seq =
    Supervisor.with_supervisor ~domains:1 (fun sup ->
        Supervisor.run sup ~key:Fun.id sq xs)
  in
  let par =
    Supervisor.with_supervisor ~domains:4 (fun sup ->
        Supervisor.run sup ~chunk:4 ~key:Fun.id sq xs)
  in
  Alcotest.check results_testable "sequential == parallel" seq par

(* ------------------------------------------------------------------ *)
(* Fault matrix                                                        *)

let test_fault_raise_once_retried () =
  let xs = List.init 10 Fun.id in
  let clean =
    Supervisor.with_supervisor ~domains:2 (fun sup ->
        Supervisor.run sup ~key:Fun.id sq xs)
  in
  Supervisor.with_supervisor ~domains:2
    ~fault:(Supervisor.Raise_once { key = 3 })
    (fun sup ->
      let got = Supervisor.run sup ~key:Fun.id sq xs in
      Alcotest.check results_testable
        "retried result bit-identical to a faultless run" clean got;
      let s = Supervisor.summary sup in
      Alcotest.(check int) "exactly one task retried" 1 s.Supervisor.retried;
      Alcotest.(check int) "nothing failed" 0 s.Supervisor.failed;
      Alcotest.(check bool) "the absorbed fault left a warning" true
        (s.Supervisor.warnings <> []))

let test_fault_raise_always_settles () =
  Supervisor.with_supervisor ~domains:2 ~retries:2
    ~fault:(Supervisor.Raise_always { key = 1 })
    (fun sup ->
      let got = Supervisor.run sup ~key:Fun.id sq [ 0; 1; 2 ] in
      (match got with
      | [ Ok 1; Error (Supervisor.Task_raised r); Ok 5 ] ->
        Alcotest.(check int) "all attempts used" 3 r.attempts;
        Alcotest.(check int) "error names the key" 1 r.key
      | _ -> Alcotest.fail "expected exactly task 1 to fail, others ok");
      let s = Supervisor.summary sup in
      Alcotest.(check int) "one failure tallied" 1 s.Supervisor.failed;
      Alcotest.(check int) "others ok" 2 s.Supervisor.ok;
      Alcotest.(check bool) "failure reported in warnings" true
        (s.Supervisor.warnings <> []))

let test_fault_hang_tripped_by_watchdog () =
  Supervisor.with_supervisor ~domains:2 ~fuel:500
    ~fault:(Supervisor.Hang { key = 2 })
    (fun sup ->
      let got = Supervisor.run sup ~key:Fun.id sq [ 0; 1; 2; 3 ] in
      match got with
      | [ Ok _; Ok _; Error (Supervisor.Fuel_exhausted e); Ok _ ] ->
        Alcotest.(check int) "budget reported" 500 e.budget;
        Alcotest.(check int) "key reported" 2 e.key
      | _ -> Alcotest.fail "expected the hanging task to exhaust its fuel")

let test_fault_duplicate_submission () =
  Supervisor.with_supervisor ~domains:2
    ~fault:(Supervisor.Duplicate { key = 1 })
    (fun sup ->
      let got = Supervisor.run sup ~key:Fun.id sq [ 0; 1; 2 ] in
      Alcotest.check results_testable "real tasks unaffected"
        [ Ok 1; Ok 2; Ok 5 ] got;
      let s = Supervisor.summary sup in
      Alcotest.(check int) "duplicate detected" 1 s.Supervisor.duplicates;
      Alcotest.(check bool) "duplicate reported" true
        (s.Supervisor.warnings <> []))

let test_genuine_duplicate_keys_rejected () =
  Supervisor.with_supervisor ~domains:2 (fun sup ->
      let got =
        Supervisor.run sup ~key:(fun x -> x mod 3) sq [ 0; 1; 2; 3; 4; 5 ]
      in
      match got with
      | [ Ok 1; Ok 2; Ok 5; Error (Supervisor.Duplicate_submission a);
          Error (Supervisor.Duplicate_submission b);
          Error (Supervisor.Duplicate_submission c) ] ->
        Alcotest.(check (list int))
          "rejections name the colliding keys" [ 0; 1; 2 ]
          [ a.key; b.key; c.key ]
      | _ ->
        Alcotest.fail
          "first occurrence of each key must run; later ones must be rejected")

let test_fault_spawn_failure_degrades () =
  let xs = List.init 20 Fun.id in
  let clean =
    Supervisor.with_supervisor ~domains:1 (fun sup ->
        Supervisor.run sup ~key:Fun.id sq xs)
  in
  Supervisor.with_supervisor ~domains:4 ~fault:Supervisor.Spawn_failure
    (fun sup ->
      Alcotest.(check bool) "degraded to sequential" true
        (Supervisor.degraded sup);
      Alcotest.(check bool) "no pool in degraded mode" true
        (Supervisor.pool sup = None);
      let got = Supervisor.run sup ~key:Fun.id sq xs in
      Alcotest.check results_testable
        "degraded run returns the same results" clean got;
      let s = Supervisor.summary sup in
      Alcotest.(check bool) "summary flags degradation" true
        s.Supervisor.degraded;
      Alcotest.(check bool) "degradation carries a warning" true
        (List.exists
           (fun w ->
             let has_sub needle hay =
               let lh = String.length hay and ln = String.length needle in
               let rec go i =
                 i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
               in
               go 0
             in
             has_sub "sequential" w)
           s.Supervisor.warnings))

(* Retry backoff is a pure, capped exponential schedule; enabling it
   spaces attempts out but must not change a single output byte. *)
let test_backoff_schedule_pinned () =
  let d = Supervisor.backoff_delay ~base:0.05 ~cap:1.0 in
  Alcotest.(check (list (float 1e-9)))
    "capped exponential doubling"
    [ 0.05; 0.1; 0.2; 0.4; 0.8; 1.0; 1.0 ]
    (List.map d [ 1; 2; 3; 4; 5; 6; 7 ]);
  Alcotest.(check (float 1e-9)) "attempt 0 clamps to base" 0.05 (d 0)

let test_backoff_results_bit_identical () =
  let xs = List.init 10 Fun.id in
  let run ?backoff () =
    Supervisor.with_supervisor ~domains:2 ?backoff
      ~fault:(Supervisor.Raise_once { key = 4 })
      (fun sup ->
        let got = Supervisor.run sup ~key:Fun.id sq xs in
        (got, Supervisor.summary sup))
  in
  let plain, s_plain = run () in
  let backed, s_backed = run ~backoff:(0.001, 0.004) () in
  Alcotest.check results_testable
    "retried-with-backoff results bit-identical to no-backoff" plain backed;
  Alcotest.(check int) "both runs retried exactly once" s_plain.Supervisor.retried
    s_backed.Supervisor.retried;
  Alcotest.(check int) "one retry" 1 s_backed.Supervisor.retried

(* Satellite: the watchdog must also trip on a calibrated-sequential
   host (1-core container), where no worker domain exists and the hang
   burns fuel in the calling domain. *)
let test_hang_tripped_on_one_core_host () =
  let seq_host =
    {
      Calibrate.cores_detected = 1;
      recommended = 1;
      minor_heap_words = Calibrate.default_minor_heap_words;
      parallel_efficiency = 1.0;
      probe_note = "forced sequential for the 1-core watchdog test";
    }
  in
  Calibrate.with_override seq_host (fun () ->
      Supervisor.with_supervisor ~fuel:300
        ~fault:(Supervisor.Hang { key = 1 })
        (fun sup ->
          Alcotest.(check bool) "calibrated-sequential: no pool" true
            (Supervisor.pool sup = None);
          Alcotest.(check bool) "sequential is not degradation" false
            (Supervisor.degraded sup);
          let got = Supervisor.run sup ~key:Fun.id sq [ 0; 1; 2 ] in
          match got with
          | [ Ok 1; Error (Supervisor.Fuel_exhausted e); Ok 5 ] ->
            Alcotest.(check int) "budget reported" 300 e.budget;
            Alcotest.(check int) "key reported" 1 e.key
          | _ ->
            Alcotest.fail
              "the hanging task must exhaust its fuel on a 1-core host"))

let test_fuel_budget_enforced () =
  Supervisor.with_supervisor ~domains:1 ~fuel:10 (fun sup ->
      let burn ~fuel x =
        Supervisor.Fuel.burn ~amount:x fuel;
        x
      in
      match Supervisor.run sup ~key:Fun.id burn [ 5; 20 ] with
      | [ Ok 5; Error (Supervisor.Fuel_exhausted _) ] -> ()
      | _ -> Alcotest.fail "only the over-budget task may be cut off")

(* ------------------------------------------------------------------ *)
(* Checkpoint file integrity                                           *)

let payload = "kind test\nline two\ttabbed\nthird \\ line\n"

let check_load_error name path expect_pred =
  match Checkpoint.load ~path with
  | Ok _ -> Alcotest.failf "%s: damaged checkpoint loaded successfully" name
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: rejected as %s" name (Checkpoint.error_to_string e))
      true (expect_pred e)

let test_checkpoint_roundtrip () =
  with_tmp (fun path ->
      Checkpoint.save ~path payload;
      match Checkpoint.load ~path with
      | Ok p -> Alcotest.(check string) "payload round-trips" payload p
      | Error e ->
        Alcotest.failf "load failed: %s" (Checkpoint.error_to_string e));
  match Checkpoint.load ~path:"/nonexistent/tpro-checkpoint" with
  | Error (Checkpoint.Io _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "missing checkpoint must be an Io error"

let test_checkpoint_truncated () =
  with_tmp (fun path ->
      Checkpoint.save ~path payload;
      let raw = read_file path in
      write_file path (String.sub raw 0 (String.length raw - 4));
      check_load_error "truncated" path (function
        | Checkpoint.Truncated _ -> true
        | _ -> false))

let test_checkpoint_bad_crc () =
  with_tmp (fun path ->
      Checkpoint.save ~path payload;
      let raw = read_file path in
      let b = Bytes.of_string raw in
      let last = Bytes.length b - 2 in
      Bytes.set b last (if Bytes.get b last = 'x' then 'y' else 'x');
      write_file path (Bytes.to_string b);
      check_load_error "flipped byte" path (function
        | Checkpoint.Bad_crc _ -> true
        | _ -> false))

let test_checkpoint_stale_version () =
  with_tmp (fun path ->
      Checkpoint.save ~path payload;
      let raw = read_file path in
      let nl = String.index raw '\n' in
      let rest = String.sub raw nl (String.length raw - nl) in
      write_file path ("tpro-checkpoint 99" ^ rest);
      check_load_error "stale version" path (function
        | Checkpoint.Bad_version 99 -> true
        | _ -> false))

let test_checkpoint_bad_magic () =
  with_tmp (fun path ->
      write_file path "utter nonsense\n";
      check_load_error "bad magic" path (function
        | Checkpoint.Bad_magic -> true
        | _ -> false))

let test_fault_torn_checkpoint_rejected () =
  with_tmp (fun path ->
      Supervisor.with_supervisor ~domains:1
        ~fault:Supervisor.Torn_checkpoint (fun sup ->
          Supervisor.checkpoint_save sup ~path payload);
      check_load_error "torn write" path (function
        | Checkpoint.Truncated _ | Checkpoint.Bad_crc _ -> true
        | _ -> false))

let test_escape_roundtrip () =
  List.iter
    (fun s ->
      match Checkpoint.unescape (Checkpoint.escape s) with
      | Some s' -> Alcotest.(check string) "escape round-trip" s s'
      | None -> Alcotest.failf "escape produced malformed output for %S" s)
    [ ""; "plain"; "tab\there"; "new\nline"; "back\\slash"; "\\n\t\n\\" ];
  Alcotest.(check bool) "dangling escape rejected" true
    (Checkpoint.unescape "broken\\" = None);
  Alcotest.(check bool) "unknown escape rejected" true
    (Checkpoint.unescape "\\q" = None)

(* ------------------------------------------------------------------ *)
(* Table serialisation (the experiment sweep's checkpoint form)        *)

let test_table_serialise_roundtrip () =
  let nasty =
    {
      Time_protection.Table.id = "E99";
      title = "cells with\ttabs and\nnewlines";
      anchor = "Sect. \\ 0";
      headers = [ "a\tb"; "c" ];
      rows = [ [ "1\n2"; "3\\4" ]; [ ""; "tab\there" ] ];
      note = "round\ntrip";
    }
  in
  List.iter
    (fun t ->
      match Time_protection.Table.deserialise
              (Time_protection.Table.serialise t)
      with
      | Ok t' ->
        Alcotest.(check bool) "table round-trips exactly" true (t = t')
      | Error e -> Alcotest.failf "deserialise failed: %s" e)
    [ nasty; (Option.get (Time_protection.Experiments.by_id "e10")) () ]

(* ------------------------------------------------------------------ *)
(* Campaign checkpoint/resume equivalence                              *)

let run_campaign ?checkpoint ?resume ~trials () =
  Supervisor.with_supervisor ~domains:2 (fun sup ->
      Tpro_fuzz.Driver.campaign ~sup ~mutant:Tpro_fuzz.Scenario.Drop_padding
        ?checkpoint ?resume ~checkpoint_every:2 ~seed:42 ~trials ())

let render_failures c =
  String.concat "\n---\n"
    (List.map
       (Format.asprintf "%a" Tpro_fuzz.Driver.pp_failure)
       c.Tpro_fuzz.Driver.failures)

let test_campaign_resume_bit_identical () =
  let uninterrupted = run_campaign ~trials:6 () in
  Alcotest.(check bool) "the mutant produces violations" true
    (uninterrupted.Tpro_fuzz.Driver.failures <> []);
  with_tmp (fun path ->
      Sys.remove path;
      let partial = run_campaign ~checkpoint:path ~trials:3 () in
      Alcotest.(check int) "partial run started fresh" 0
        partial.Tpro_fuzz.Driver.resumed_from;
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path);
      let resumed =
        run_campaign ~checkpoint:path ~resume:true ~trials:6 ()
      in
      Alcotest.(check int) "resumed from the last completed chunk" 3
        resumed.Tpro_fuzz.Driver.resumed_from;
      Alcotest.(check string)
        "resumed report byte-identical to uninterrupted"
        (render_failures uninterrupted)
        (render_failures resumed);
      Alcotest.(check bool) "resume decision noted" true
        (resumed.Tpro_fuzz.Driver.notes <> []))

let test_campaign_corrupt_checkpoint_restarts () =
  let fresh = run_campaign ~trials:4 () in
  with_tmp (fun path ->
      write_file path "this is not a checkpoint\n";
      let c = run_campaign ~checkpoint:path ~resume:true ~trials:4 () in
      Alcotest.(check int) "restarted from scratch" 0
        c.Tpro_fuzz.Driver.resumed_from;
      Alcotest.(check string) "clean restart reproduces the fresh run"
        (render_failures fresh) (render_failures c);
      Alcotest.(check bool) "rejection noted" true
        (List.exists
           (fun n ->
             let has_sub needle hay =
               let lh = String.length hay and ln = String.length needle in
               let rec go i =
                 i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
               in
               go 0
             in
             has_sub "rejected" n)
           c.Tpro_fuzz.Driver.notes))

let test_campaign_missing_checkpoint_starts_fresh () =
  with_tmp (fun path ->
      Sys.remove path;
      let c = run_campaign ~checkpoint:path ~resume:true ~trials:2 () in
      Alcotest.(check int) "no checkpoint means a fresh start" 0
        c.Tpro_fuzz.Driver.resumed_from;
      Alcotest.(check bool) "the fresh start is noted" true
        (c.Tpro_fuzz.Driver.notes <> []))

(* A checkpoint from a different campaign (other seed) must be
   rejected, not resumed into wrong state. *)
let test_campaign_mismatched_checkpoint_rejected () =
  with_tmp (fun path ->
      Sys.remove path;
      let _partial =
        Supervisor.with_supervisor ~domains:1 (fun sup ->
            Tpro_fuzz.Driver.campaign ~sup ~checkpoint:path ~seed:7 ~trials:2
              ())
      in
      let c =
        Supervisor.with_supervisor ~domains:1 (fun sup ->
            Tpro_fuzz.Driver.campaign ~sup ~checkpoint:path ~resume:true
              ~seed:8 ~trials:2 ())
      in
      Alcotest.(check int) "different seed restarts from scratch" 0
        c.Tpro_fuzz.Driver.resumed_from)

(* ------------------------------------------------------------------ *)
(* Supervised experiment sweep resume                                  *)

let test_sweep_resume_reuses_tables () =
  with_tmp (fun path ->
      Sys.remove path;
      let fresh =
        Supervisor.with_supervisor ~domains:1 (fun sup ->
            Time_protection.Experiments.run_supervised ~sup ~checkpoint:path
              ~only:[ "e10" ] ())
      in
      let resumed =
        Supervisor.with_supervisor ~domains:1 (fun sup ->
            Time_protection.Experiments.run_supervised ~sup ~checkpoint:path
              ~resume:true ~only:[ "e10" ] ())
      in
      Alcotest.(check int) "table reloaded, not recomputed" 1
        resumed.Time_protection.Experiments.sweep_resumed;
      match
        ( fresh.Time_protection.Experiments.tables,
          resumed.Time_protection.Experiments.tables )
      with
      | [ (_, Ok a) ], [ (_, Ok b) ] ->
        Alcotest.(check string) "re-rendered byte-identically"
          (Time_protection.Table.to_string a)
          (Time_protection.Table.to_string b);
        Alcotest.(check bool) "tables structurally equal" true (a = b)
      | _ -> Alcotest.fail "expected exactly one settled table per sweep")

let suite =
  [
    Alcotest.test_case "supervised fan-out: all ok, input order" `Quick
      test_run_basic;
    Alcotest.test_case "sequential == parallel" `Quick
      test_sequential_matches_parallel;
    Alcotest.test_case "fault: raise-once is retried bit-identically" `Quick
      test_fault_raise_once_retried;
    Alcotest.test_case "fault: raise-always settles as Task_raised" `Quick
      test_fault_raise_always_settles;
    Alcotest.test_case "fault: hang tripped by the fuel watchdog" `Quick
      test_fault_hang_tripped_by_watchdog;
    Alcotest.test_case "fault: duplicate submission detected" `Quick
      test_fault_duplicate_submission;
    Alcotest.test_case "genuine duplicate keys rejected" `Quick
      test_genuine_duplicate_keys_rejected;
    Alcotest.test_case "fault: spawn failure degrades to sequential" `Quick
      test_fault_spawn_failure_degrades;
    Alcotest.test_case "fuel budget enforced" `Quick test_fuel_budget_enforced;
    Alcotest.test_case "backoff: schedule pinned" `Quick
      test_backoff_schedule_pinned;
    Alcotest.test_case "backoff: retried results bit-identical" `Quick
      test_backoff_results_bit_identical;
    Alcotest.test_case "fault: hang tripped on a 1-core host" `Quick
      test_hang_tripped_on_one_core_host;
    Alcotest.test_case "checkpoint round-trip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint: truncation rejected" `Quick
      test_checkpoint_truncated;
    Alcotest.test_case "checkpoint: bad CRC rejected" `Quick
      test_checkpoint_bad_crc;
    Alcotest.test_case "checkpoint: stale version rejected" `Quick
      test_checkpoint_stale_version;
    Alcotest.test_case "checkpoint: bad magic rejected" `Quick
      test_checkpoint_bad_magic;
    Alcotest.test_case "fault: torn checkpoint write rejected on load" `Quick
      test_fault_torn_checkpoint_rejected;
    Alcotest.test_case "escape/unescape round-trip" `Quick
      test_escape_roundtrip;
    Alcotest.test_case "table serialise/deserialise exact round-trip" `Quick
      test_table_serialise_roundtrip;
    Alcotest.test_case "campaign: resume is bit-identical" `Quick
      test_campaign_resume_bit_identical;
    Alcotest.test_case "campaign: corrupt checkpoint restarts cleanly" `Quick
      test_campaign_corrupt_checkpoint_restarts;
    Alcotest.test_case "campaign: missing checkpoint starts fresh" `Quick
      test_campaign_missing_checkpoint_starts_fresh;
    Alcotest.test_case "campaign: mismatched checkpoint rejected" `Quick
      test_campaign_mismatched_checkpoint_rejected;
    Alcotest.test_case "sweep: resume reloads tables byte-identically" `Quick
      test_sweep_resume_reuses_tables;
  ]
