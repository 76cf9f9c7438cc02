(* The traced run: in-process and single-threaded, it replays a workload's
   request sequence against brokers built with Journal.recover, as the
   daemon builds them, calling each layer's public functions itself. Spans
   (name, start, end, parent, request id) are kept in memory, written out
   at the end, and the per-layer metrics are derived from them; counts come
   from the daemon's stats verb, scraped around each timed phase of the
   socket-level run that precedes this one. *)

module Journal = Server.Journal
module Broker = Server.Broker
module Protocol = Server.Protocol
module Manager = Core.Manager

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (* -1 for a root *)
  req : int;  (* request id; -1 outside the request sequence *)
  name : string;
  start : int;  (* monotonic ns *)
  stop : int;
  words : float;  (* minor-heap words allocated inside the span *)
}

let spans : span list ref = ref []
let recording = ref true
let next_id = ref 0
let current = ref (-1)
let current_req = ref (-1)

(* Request ids of each pass start at a new multiple of a million. *)
let req_base = ref 0

(* Record a span around [f]; its name may depend on [f]'s result. *)
let span_named (name_of : 'a -> string) (f : unit -> 'a) : 'a =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let w0 = Gc.minor_words () in
    let t0 = Obs.Mtime.now_ns () in
    let finish name =
      let stop = Obs.Mtime.now_ns () in
      let words = Gc.minor_words () -. w0 in
      current := parent;
      spans := { id; parent; req = !current_req; name; start = t0; stop; words } :: !spans
    in
    match f () with
    | v ->
        finish (name_of v);
        v
    | exception e ->
        finish "error";
        raise e
  end

let with_span name f = span_named (fun _ -> name) f

let dur_ns s = s.stop - s.start

(* A span's duration minus the part of it its children cover. *)
let self_ns all =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur_ns s + Option.value (Hashtbl.find_opt child s.parent) ~default:0))
    all;
  fun s -> dur_ns s - Option.value (Hashtbl.find_opt child s.id) ~default:0

let write_spans path =
  let oc = open_out path in
  output_string oc "id\tparent\treq\tname\tstart_ns\tend_ns\tminor_words\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%.0f\n" s.id s.parent s.req s.name
        s.start s.stop s.words)
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* The request sequence                                                *)
(* ------------------------------------------------------------------ *)

type item = Session of Gen.session | Query of string

(* Sizes: 70 sessions commit 63 times, so with the fixture's 8 records the
   direct stack crosses the 64-commit checkpoint cap once. *)

(* Settle each session with its expected outcome (planted ones are
   refused, the rest commit); the replay checks the outcome. *)
let sessions s n =
  List.init n (fun _ ->
      let ss = Gen.next s in
      Gen.settle s ~committed:(ss.Gen.kind <> Gen.Planted);
      Session ss)

let sequence (o : Workload.opts) =
  let probe n = sessions (Gen.stream ~seed:o.seed ~name:"p") n in
  match o.workload with
  | "evolve" -> sessions (Gen.stream ~seed:o.seed ~name:"w") 70
  | _ ->
      let draw = Gen.browse_sequence ~seed:o.seed ~skew:Gen.zipf_skew in
      List.init 250 (fun _ -> Query Gen.universe.(draw ())) @ probe 70

(* Request lines of one item, as a connection sends them. *)
let lines = function
  | Query q -> [ "query " ^ q ]
  | Session ss ->
      [ "bes" ]
      @ List.map (fun l -> "script-line " ^ l) ss.Gen.lines
      @ [ "ees" ]
      @ (if ss.Gen.kind = Gen.Planted then [ "rollback" ] else [])
      @ [ "query " ^ Gen.attr_query ss.Gen.ty ]

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

let recover dir = with_span "journal.recover" (fun () -> Journal.recover ~dir ())

type broker_pass = {
  plan_hits : int;  (* plan-cache traffic of the broker's missed queries *)
  plan_misses : int;
  reply_bytes : int;
  replies : int;
  mismatches : int;
  loop_ns : int;  (* the request loop alone: no recovery, no re-evaluation *)
}

(* Spans of the program's own tracing (Obs.Trace), collected by a hook
   while a pass runs with [~obs:true]. *)
let obs_spans : Obs.Trace.span list ref = ref []

(* The broker stack: Protocol.parse_request -> Broker.handle ->
   Protocol.write_response for every request line. With [~obs], the
   program's tracing is armed for the loop, under one trace context as a
   daemon connection has. *)
let broker_pass ~dir ~name ~traced ?(obs = false) ?(reeval = false) ~fixture items =
  req_base := !req_base + 1_000_000;
  let data = Filename.concat dir name in
  Workload.copy_dir fixture data;
  let r = recover data in
  let metrics = Server.Metrics.create () in
  let b = Broker.create ~journal:r.Journal.journal ~metrics r.Journal.manager in
  let out = data ^ ".replies" in
  let oc = open_out_bin out in
  let reqs = Array.of_list (List.concat_map lines items) in
  let mismatches = ref 0 in
  let plan_hits = ref 0 and plan_misses = ref 0 and extra_ns = ref 0 in
  recording := traced;
  if obs then Obs.Trace.set_hook (Some (fun sp -> obs_spans := sp :: !obs_spans));
  let in_context f = if obs then Obs.Trace.with_context (Obs.Trace.new_id ()) f else f () in
  let t0 = Obs.Mtime.now_ns () in
  in_context (fun () ->
    Array.iteri
      (fun i line ->
        current_req := !req_base + i;
        let hits0 = Server.Metrics.counter metrics "read_cache_hits" in
        let ph0 = Datalog.Plan.hits () and pm0 = Datalog.Plan.misses () in
        with_span "request" (fun () ->
            let req =
              match with_span "protocol.parse" (fun () -> Protocol.parse_request line) with
              | Ok req -> req
              | Error e -> failwith ("unparsable request " ^ line ^ ": " ^ e)
            in
            let resp = with_span "broker.handle" (fun () -> Broker.handle b ~client:0 req) in
            with_span "protocol.render" (fun () -> Protocol.write_response oc resp);
            let planted_ees =
              line = "ees" && i + 1 < Array.length reqs && reqs.(i + 1) = "rollback"
            in
            if (resp.Protocol.status = Protocol.Ok) = planted_ees then incr mismatches);
        (* on a miss, evaluate the same query again straight through the
           manager on the same state: Broker.handle minus this is the
           broker's own share of the miss *)
        match reqs.(i) with
        | l when reeval && String.length l > 6 && String.sub l 0 6 = "query "
                    && Server.Metrics.counter metrics "read_cache_hits" = hits0 ->
            (* the plan cache as the broker's evaluation of the miss used it *)
            plan_hits := !plan_hits + Datalog.Plan.hits () - ph0;
            plan_misses := !plan_misses + Datalog.Plan.misses () - pm0;
            let text = String.sub l 6 (String.length l - 6) in
            let t0 = Obs.Mtime.now_ns () in
            ignore (with_span "manager.query" (fun () -> Manager.query_text (Broker.manager b) text));
            extra_ns := !extra_ns + Obs.Mtime.elapsed_ns t0
        | _ -> ())
      reqs);
  let loop_ns = Obs.Mtime.elapsed_ns t0 - !extra_ns in
  Obs.Trace.set_hook None;
  recording := true;
  current_req := -1;
  let bytes = pos_out oc in
  close_out oc;
  Sys.remove out;
  Journal.close r.Journal.journal;
  { plan_hits = !plan_hits; plan_misses = !plan_misses; reply_bytes = bytes; replies = Array.length reqs; mismatches = !mismatches; loop_ns }

(* The direct stack, mirroring what the broker does for a session through
   Manager/Analyzer/Journal: begin -> run_commands per line -> end_session
   -> Journal.append (and a checkpoint at the daemon's default caps), or
   rollback when refused. Returns the bytes each append added. *)
let direct_pass ~dir ~fixture items =
  let data = Filename.concat dir "direct" in
  Workload.copy_dir fixture data;
  let r = recover data in
  let m = r.Journal.manager and j = r.Journal.journal in
  let appended = ref [] in
  req_base := !req_base + 1_000_000;
  let req = ref !req_base in
  let at f =
    current_req := !req;
    incr req;
    f ()
  in
  List.iter
    (function
      | Query _ -> incr req
      | Session ss ->
          at (fun () -> Manager.begin_session m);
          List.iter
            (fun l ->
              at (fun () -> with_span "analyzer.script_line" (fun () -> Manager.run_commands m l)))
            ss.Gen.lines;
          at (fun () ->
              let delta = Manager.session_delta m in
              let code = Manager.session_code_changes m in
              match
                span_named
                  (function
                    | Manager.Consistent -> "manager.end_session"
                    | Manager.Inconsistent _ -> "manager.violation")
                  (fun () -> Manager.end_session m)
              with
              | Manager.Consistent ->
                  let b0 = Journal.bytes j in
                  ignore
                    (with_span "journal.append" (fun () ->
                         Journal.append j ~ids:(Manager.ids m) ~code delta));
                  appended := (Journal.bytes j - b0) :: !appended;
                  let cfg = Server.Daemon.default_config in
                  if Journal.since_checkpoint j >= cfg.checkpoint_every
                     || Journal.bytes j >= cfg.checkpoint_bytes
                  then
                    with_span "journal.checkpoint" (fun () -> Journal.checkpoint j m)
              | Manager.Inconsistent _ ->
                  at (fun () -> with_span "manager.rollback" (fun () -> Manager.rollback m)));
          incr req (* the follow-up query *))
    items;
  current_req := -1;
  Journal.close j;
  !appended

(* The replica's side, as its applier does it: install the primary's
   snapshot into a maintained manager, then apply and journal each record. *)
let replica_pass ~dir ~fixture =
  let data = Filename.concat dir "source" in
  Workload.copy_dir fixture data;
  let src = Journal.recover ~check_mode:Manager.Maintained ~dir:data () in
  let text = Option.get (Journal.read_snapshot src.Journal.journal) in
  let base = Journal.base src.Journal.journal in
  let records = Journal.records_from src.Journal.journal ~from:base in
  Journal.close src.Journal.journal;
  let r = Journal.recover ~check_mode:Manager.Maintained ~dir:(Filename.concat dir "replica") () in
  let j = r.Journal.journal in
  let m =
    with_span "replica.snapshot_install" (fun () ->
        let m = Core.Persist.load_from_string ~check_mode:Manager.Maintained text in
        Journal.install_snapshot j ~seq:base ~text;
        m)
  in
  List.iter
    (fun (seq, text) ->
      with_span "replica.apply" (fun () ->
          let r = Journal.parse_record text in
          if not (Journal.apply_record m r) then
            failwith (Printf.sprintf "record %d did not apply" seq);
          Journal.append_raw j ~epoch:r.Journal.r_epoch ~seq ~text ()))
    records;
  Journal.close j;
  List.length records

(* Load the fixture's snapshot the way recovery does. *)
let snapshot_load ~fixture =
  let text = Net.read_file (Journal.snapshot_path ~dir:fixture) in
  ignore (with_span "persist.snapshot_load" (fun () -> Core.Persist.load_from_string text))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

let named name = List.filter (fun s -> s.name = name) !spans
let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3
let median_of f l = Workload.median (List.map f l)

(* A count ratio from the daemon's stats: summed over the measured phases
   whose base moved. *)
let ratio (windows : Workload.phase list) ~num ~base =
  let get ph k = List.fold_left (fun a k -> a + Option.value (List.assoc_opt k ph.Workload.stats) ~default:0) 0 k in
  let n, b =
    List.fold_left
      (fun (n, b) ph -> if get ph base > 0 then (n + get ph num, b + get ph base) else (n, b))
      (0, 0) windows
  in
  (float_of_int n /. float_of_int (max 1 b), n, b)

let overhead_pairs = 3

let per_layer (o : Workload.opts) (r : Workload.run) =
  let dir = Workload.fresh o "traced" in
  Unix.mkdir dir 0o755;
  let fx = Workload.make_fixture o in
  let items = sequence o in
  let records = Workload.fixture_records in
  let applied = replica_pass ~dir ~fixture:fx.Workload.fdir in
  let pass name ~traced ?obs ?reeval () =
    let p = broker_pass ~dir ~name ~traced ?obs ?reeval ~fixture:fx.Workload.fdir items in
    snapshot_load ~fixture:fx.Workload.fdir;
    p
  in
  (* the overhead of the program's tracing: request loops alternate
     between Obs.Trace disarmed and armed (ABBA...), and each pair gives a
     ratio, so a drift in machine speed cancels within the pair *)
  let pairs =
    List.init overhead_pairs (fun i ->
        let off () = pass (Printf.sprintf "plain%d" i) ~traced:false () in
        let on () = pass (Printf.sprintf "obs%d" i) ~traced:false ~obs:true () in
        if i mod 2 = 0 then
          let a = off () in
          (a, on ())
        else
          let b = on () in
          (off (), b))
  in
  (* the spans the per-layer timings come from; this pass also
     re-evaluates every missed query through the manager *)
  let a = pass "reeval" ~traced:true ~reeval:true () in
  let appended = direct_pass ~dir ~fixture:fx.Workload.fdir items in
  let overhead =
    Workload.median
      (List.map
         (fun (off, on) -> 100. *. float_of_int (on.loop_ns - off.loop_ns) /. float_of_int off.loop_ns)
         pairs)
  in
  let mismatches =
    List.fold_left (fun n (off, on) -> n + off.mismatches + on.mismatches) a.mismatches pairs
  in
  if mismatches > 0 then
    Oracle.fail r.Workload.oracle
      "traced replay: %d reply status(es) differ from the expected outcome" mismatches;
  write_spans (Filename.concat (Filename.dirname o.Workload.dir)
                 (Printf.sprintf "spans-%s.tsv" o.Workload.workload));
  let self = self_ns !spans in
  (* Broker.handle minus Manager.query_text on the same missed query *)
  let query_by_req = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace query_by_req s.req s) (named "manager.query");
  let query_self =
    List.filter_map
      (fun s ->
        Option.map (fun q -> us (dur_ns s - dur_ns q)) (Hashtbl.find_opt query_by_req s.req))
      (named "broker.handle")
  in
  let med name f = median_of f (named name) in
  let replay_ms =
    (med "journal.recover" (fun s -> ms (dur_ns s))
     -. med "persist.snapshot_load" (fun s -> ms (dur_ns s)))
    /. float_of_int records
  in
  let hit_ratio, hits, queries =
    ratio r.Workload.queries ~num:[ "read_cache_hits" ] ~base:[ "latency.query.count" ]
  in
  let waits, lock_waits, requests =
    ratio r.Workload.windows
      ~num:[ "read_lock_waits"; "write_lock_waits"; "acquire_waits" ]
      ~base:[ "requests_total" ]
  in
  let ckpt_ratio, ckpts, commits =
    ratio r.Workload.commits ~num:[ "checkpoints" ] ~base:[ "sessions_committed" ]
  in
  Printf.eprintf
    "stats: %d cache hits / %d queries; %d lock waits / %d requests; %d checkpoints / %d commits\n"
    hits queries lock_waits requests ckpts commits;
  Printf.eprintf
    "traced replay: %d requests, %d spans, %d Obs.Trace spans over %d armed passes, \
     %d replica records, plan cache %d hits / %d lookups\n"
    a.replies (List.length !spans) (List.length !obs_spans) overhead_pairs applied a.plan_hits
    (a.plan_hits + a.plan_misses);
  let bes = List.concat_map (fun ph -> ph.Workload.t.Workload.bes_ms) r.Workload.windows in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l)) in
  [
    ("protocol.parse_us", med "protocol.parse" (fun s -> us (dur_ns s)), "us");
    ("protocol.render_us", med "protocol.render" (fun s -> us (dur_ns s)), "us");
    ("protocol.reply_bytes", float_of_int a.reply_bytes /. float_of_int (max 1 a.replies), "B");
    ("broker.cache_hit_ratio", hit_ratio, "1");
    ("broker.query_self_us", Workload.median query_self, "us");
    ("broker.slot_wait_ms", Workload.median bes, "ms");
    ("broker.lock_waits_per_op", waits, "1");
    ("analyzer.script_line_us", med "analyzer.script_line" (fun s -> us (self s)), "us");
    ("manager.end_session_ms", med "manager.end_session" (fun s -> ms (dur_ns s)), "ms");
    ("manager.end_session_alloc_kw", med "manager.end_session" (fun s -> s.words /. 1e3), "kw");
    ("manager.violation_ms", med "manager.violation" (fun s -> ms (dur_ns s)), "ms");
    ("manager.rollback_us", med "manager.rollback" (fun s -> us (dur_ns s)), "us");
    ("manager.query_ms", med "manager.query" (fun s -> ms (dur_ns s)), "ms");
    ("manager.query_alloc_kw", med "manager.query" (fun s -> s.words /. 1e3), "kw");
    ("plan.cache_hit_ratio",
     float_of_int a.plan_hits /. float_of_int (max 1 (a.plan_hits + a.plan_misses)), "1");
    ("journal.append_us", med "journal.append" (fun s -> us (dur_ns s)), "us");
    ("journal.bytes_per_commit", mean (List.map float_of_int appended), "B");
    ("journal.checkpoint_ms", med "journal.checkpoint" (fun s -> ms (dur_ns s)), "ms");
    ("journal.checkpoints_per_commit", ckpt_ratio, "1");
    ("journal.replay_ms_per_record", replay_ms, "ms");
    ("persist.snapshot_load_ms", med "persist.snapshot_load" (fun s -> ms (dur_ns s)), "ms");
    ("replica.apply_ms_per_record", med "replica.apply" (fun s -> ms (dur_ns s)), "ms");
    ("replica.snapshot_install_ms", med "replica.snapshot_install" (fun s -> ms (dur_ns s)), "ms");
    ("trace.overhead_pct", overhead, "%");
  ]
