open Time_protection

(* ------------------------- Presets -------------------------------- *)

let test_preset_names () =
  Alcotest.(check string) "none" "none" (Presets.name Presets.none);
  Alcotest.(check string) "full" "full" (Presets.name Presets.full);
  Alcotest.(check string) "ablation" "full\\clone"
    (Presets.name Presets.without_clone)

let test_ablations_differ_from_full () =
  List.iter
    (fun (name, cfg) ->
      if name <> "full" then
        Alcotest.(check bool) (name ^ " differs") true (cfg <> Presets.full))
    Presets.ablations

let test_without_colouring_drops_clone () =
  Alcotest.(check bool) "clone needs coloured memory" false
    Presets.without_colouring.Tpro_kernel.Kernel.kernel_clone

(* ------------------------- Table ---------------------------------- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t =
    {
      Table.id = "T0";
      title = "demo";
      anchor = "Sect. 0";
      headers = [ "a"; "b" ];
      rows = [ [ "1"; "22" ]; [ "333"; "4" ] ];
      note = "n";
    }
  in
  let s = Table.to_string t in
  Alcotest.(check bool) "contains title and cells" true
    (contains s "demo" && contains s "333")

let test_cell_float () =
  Alcotest.(check string) "3 decimals" "1.500" (Table.cell_float 1.5)

(* ------------------------- Experiments ---------------------------- *)

let test_by_id_total () =
  List.iter
    (fun id ->
      match Experiments.by_id id with
      | Some _ -> ()
      | None -> Alcotest.failf "experiment %s not resolvable" id)
    Experiments.ids;
  Alcotest.(check bool) "unknown id rejected" true
    (Experiments.by_id "e99" = None)

let test_e10_static () =
  let t = (Option.get (Experiments.by_id "e10")) () in
  Alcotest.(check int) "five geometries" 5 (List.length t.Table.rows);
  (* the 8 MiB row must show >= 64 colours, the paper's claim *)
  match List.nth t.Table.rows 3 with
  | [ _; _; _; colours; _ ] ->
    Alcotest.(check bool) "8MiB LLC has >= 64 colours" true
      (int_of_string colours >= 64)
  | _ -> Alcotest.fail "unexpected row shape"

let test_e4_shape () =
  let t = (Option.get (Experiments.by_id "e4")) ~seeds:[ 0; 1 ] () in
  Alcotest.(check int) "five dirtiness levels" 5 (List.length t.Table.rows);
  let flush_costs =
    List.map
      (fun row -> int_of_string (List.nth row 1))
      t.Table.rows
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "flush cost monotone in dirtiness" true
    (monotone flush_costs);
  List.iter
    (fun row ->
      let slot = List.nth row 3 in
      Alcotest.(check bool) "padded slot constant" true
        (String.length slot >= 8
        && String.sub slot (String.length slot - 10) 10 = "(constant)"))
    t.Table.rows

(* ------------------------- Verify --------------------------------- *)

let test_verify_full_holds () =
  let r = Verify.run ~seeds:[ 0 ] ~secrets:[ 0; 1 ] ~cfg:Presets.full () in
  Alcotest.(check bool) "aISA" true r.Verify.aisa_ok;
  Alcotest.(check bool) "all obligations hold" true r.Verify.all_hold;
  Alcotest.(check int) "six obligations" 6 (List.length r.Verify.checks)

let test_verify_none_fails () =
  let r = Verify.run ~seeds:[ 0 ] ~secrets:[ 0; 1 ] ~cfg:Presets.none () in
  Alcotest.(check bool) "violations found" false r.Verify.all_hold

let test_verify_report_prints () =
  let r = Verify.run ~seeds:[ 0 ] ~secrets:[ 0; 1 ] ~cfg:Presets.full () in
  let s = Format.asprintf "%a" Verify.pp_report r in
  Alcotest.(check bool) "report nonempty" true (String.length s > 100)

let suite =
  [
    Alcotest.test_case "preset names" `Quick test_preset_names;
    Alcotest.test_case "ablations differ" `Quick test_ablations_differ_from_full;
    Alcotest.test_case "colour knockout drops clone" `Quick
      test_without_colouring_drops_clone;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "cell_float" `Quick test_cell_float;
    Alcotest.test_case "experiments by_id total" `Quick test_by_id_total;
    Alcotest.test_case "E10 static" `Quick test_e10_static;
    Alcotest.test_case "E4 shape" `Slow test_e4_shape;
    Alcotest.test_case "verify full holds" `Slow test_verify_full_holds;
    Alcotest.test_case "verify none fails" `Slow test_verify_none_fails;
    Alcotest.test_case "verify report prints" `Slow test_verify_report_prints;
  ]
