(* The gomsm benchmark:

     main.exe --gomsm PATH --dir DIR --workload evolve|browse
              --seed N --seconds S --trace 0|1 [--corrupt-oracle]

   With --trace 0 it prints the end-to-end metrics of a socket-level run;
   with --trace 1 the per-layer metrics (daemon stats counts plus an
   in-process traced replay). The last stdout line is the JSON result. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --gomsm PATH --dir DIR --workload evolve|browse \
     --seed N --seconds S --trace 0|1 [--corrupt-oracle]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let gomsm = ref "" and dir = ref "" and corrupt = ref false in
  let rec go = function
    | "--workload" :: v :: r -> workload := v; go r
    | "--seed" :: v :: r -> seed := int_of_string v; go r
    | "--seconds" :: v :: r -> seconds := float_of_string v; go r
    | "--trace" :: v :: r -> trace := v = "1"; go r
    | "--gomsm" :: v :: r -> gomsm := v; go r
    | "--dir" :: v :: r -> dir := v; go r
    | "--corrupt-oracle" :: r -> corrupt := true; go r
    | [] -> ()
    | a :: _ ->
        prerr_endline ("unknown argument " ^ a);
        usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload [ "evolve"; "browse" ]) then usage ();
  if !gomsm = "" || !dir = "" then usage ();
  {
    Workload.workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace;
    gomsm = !gomsm;
    dir = !dir;
    corrupt_oracle = !corrupt;
  }

let json_number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let () =
  let o = parse_args () in
  (* the whole run must end within 180 s: stop the daemons and give up;
     a run stopped from outside stops its daemons too *)
  ignore (Unix.alarm 170);
  let give_up why =
    Sys.Signal_handle
      (fun _ ->
        prerr_endline ("perfbench: " ^ why);
        Net.stop_all ();
        exit 1)
  in
  Sys.set_signal Sys.sigalrm (give_up "run exceeded its time limit");
  Sys.set_signal Sys.sigterm (give_up "terminated");
  Sys.set_signal Sys.sigint (give_up "interrupted");
  at_exit Net.stop_all;
  let r = Workload.run o in
  let metrics, layers =
    if o.Workload.trace then ([], Traced.per_layer o r) else (Workload.end_to_end r, [])
  in
  (* a metric without samples means the run did not do its work *)
  let missing = List.filter (fun (_, v, _) -> not (Float.is_finite v)) (metrics @ layers) in
  List.iter (fun (name, _, _) -> Printf.eprintf "no samples for %s\n" name) missing;
  let attempted = Workload.attempted r and failed = Workload.failed r + List.length missing in
  Printf.eprintf "%s: %d requests attempted, %d failed (fail_ratio %.6f), %d oracle checks\n"
    o.Workload.workload attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted))
    r.Workload.oracle.Oracle.checks;
  List.iter
    (fun (name, v, unit) -> Printf.eprintf "  %-32s %14.6f %s\n" name v unit)
    (metrics @ layers);
  if not o.Workload.trace then
    List.iter
      (fun (name, v, unit) -> Printf.eprintf "  %-32s %14.6f %s (not in the result)\n" name v unit)
      (Workload.medians r);
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      (metrics @ layers)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) (max 1 attempted) failed (String.concat ", " body)
