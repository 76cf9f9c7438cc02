(* The correctness oracle: a reference Core.Manager, in maintained mode (a
   different evaluation strategy from the daemon's default), fed the same
   inputs as the daemon. Every mismatch is printed to stderr and counted. *)

type t = {
  manager : Core.Manager.t;
  mutable failures : int;
  mutable checks : int;
  mutable corrupt : bool;
      (* oracle self-test: perturb the next expected answer, so the run must
         report a failure *)
}

let create manager = { manager; failures = 0; checks = 0; corrupt = false }

let fail o fmt =
  Printf.ksprintf
    (fun s ->
      o.failures <- o.failures + 1;
      prerr_endline ("oracle: " ^ s))
    fmt

let expect o ok fmt =
  o.checks <- o.checks + 1;
  Printf.ksprintf (fun s -> if not ok then fail o "%s" s) fmt

(* A query's answers as the daemon renders them: one line per answer,
   then the count line. Compared as sorted lists, since answer order is
   not part of the protocol. *)
let render answers =
  let lines =
    List.map
      (fun bindings ->
        "  "
        ^ String.concat ", "
            (List.map
               (fun (v, c) -> v ^ " = " ^ Datalog.Term.const_to_string c)
               bindings))
      answers
  in
  List.sort compare
    (Printf.sprintf "%d answer(s)." (List.length answers) :: lines)

let expected o text =
  let e = render (Core.Manager.query_text o.manager text) in
  if o.corrupt then begin
    o.corrupt <- false;
    "  X = planted_wrong_answer" :: e
  end
  else e

(* Check a daemon's reply to [text] against the reference's answers. *)
let check_query o text (reply : Server.Protocol.response) =
  let got = List.sort compare reply.Server.Protocol.body in
  expect o
    (Net.is_ok reply && got = expected o text)
    "query %S: reply %s with %d line(s) differs from the reference"
    text (Net.status_text reply) (List.length got)

(* Replay one committed session into the reference. *)
let replay o (lines : string list) =
  let m = o.manager in
  Core.Manager.begin_session m;
  List.iter (Core.Manager.run_commands m) lines;
  match Core.Manager.end_session m with
  | Core.Manager.Consistent -> ()
  | Core.Manager.Inconsistent _ ->
      Core.Manager.rollback m;
      fail o "session acknowledged by the daemon is refused by the reference: %s"
        (String.concat " " lines)

let digest o =
  let d = Server.Broker.digest_of_manager o.manager in
  if o.corrupt then begin
    o.corrupt <- false;
    "00000000"
  end
  else d

(* Compare a daemon's health with the expected position: [seq] and, by
   default, the reference's current digest. *)
let check_health ?digest:want o ~who ~seq health =
  let got_seq = Net.seq_of health in
  let got_digest = List.assoc_opt "digest" health in
  let want = match want with Some d -> d | None -> digest o in
  expect o
    (got_seq = Some seq && got_digest = Some want)
    "%s: health seq %s digest %s, expected seq %d digest %s" who
    (Option.fold ~none:"-" ~some:string_of_int got_seq)
    (Option.value got_digest ~default:"-")
    seq want
