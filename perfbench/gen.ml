(* Seeded input generators for the benchmark: the GOM schema every workload
   starts from, the evolution-session stream of one connection, the browse
   query universe with its Zipf sampler, and the data-directory fixture
   (snapshot of the base schema plus journal records). The same seed gives
   the same bytes. *)

let types = 80
let chain = 10
let attrs = 4
let schema_name = "Gen"

(* Names each session stream may place; "pools full" means all placed. *)
let pool_size = 8

(* 80 types T0..T79 in inheritance chains of 10, four attributes each
   (a<k>_0 .. a<k>_3), and one operation op<k> whose body reads a<k>_1. *)
let schema_text =
  let domains = [| "int"; "float"; "string"; "bool" |] in
  let b = Buffer.create (types * 256) in
  Printf.bprintf b "schema %s is\n" schema_name;
  for k = 0 to types - 1 do
    if k mod chain = 0 then Printf.bprintf b "  type T%d is\n    [ " k
    else Printf.bprintf b "  type T%d supertype T%d is\n    [ " k (k - 1);
    for a = 0 to attrs - 1 do
      Printf.bprintf b "a%d_%d : %s; " k a domains.(a)
    done;
    Printf.bprintf b "]\n  operations\n    declare op%d : (float) -> float;\n" k;
    Printf.bprintf b
      "  implementation\n    define op%d(x) is begin return self.a%d_1 + x; end op%d;\n"
      k k k;
    Printf.bprintf b "  end type T%d;\n" k
  done;
  Printf.bprintf b "end schema %s;\n" schema_name;
  Buffer.contents b

let rng ~seed ~stream = Random.State.make [| 0x9e3779b9; seed; stream |]

(* ------------------------------------------------------------------ *)
(* Evolution sessions                                                  *)
(* ------------------------------------------------------------------ *)

type kind = Add | Delete | Planted

type session = {
  kind : kind;
  lines : string list;  (* script-line payloads, in order *)
  ty : int;  (* the type the last line touched: the follow-up query's *)
  placed : (string * int) list;  (* (name, type) it places, if it commits *)
  removed : (string * int) list;  (* (name, type) it frees, if it commits *)
}

(* The session stream of one writer. Session kinds follow a fixed cycle
   of ten: six add attributes from the stream's own name pool, three delete
   ones it placed earlier, oldest first, and one deletes an attribute that
   an operation reads (refused by ri$CodeReqAttr_Attr). Sessions hold 1, 2
   or 3 lines in turn. The seed picks names and the chains of types, so
   every seed asks for the same amount of work. An add with the pool full
   becomes a delete and vice versa, so the schema size stays stationary.
   Feed each session's outcome back with [settle]. *)
type stream = {
  st : Random.State.t;
  mutable n : int;  (* sessions generated so far *)
  mutable picks : int;  (* types picked so far *)
  mutable free : string list;
  mutable placed_on : (string * int) list;  (* name -> type *)
  mutable pending : session option;
}

let kinds = [| Add; Add; Delete; Add; Planted; Add; Delete; Add; Add; Delete |]

let stream ~seed ~name =
  {
    st = rng ~seed ~stream:(Hashtbl.hash name);
    n = 0;
    picks = 0;
    free = List.init pool_size (fun i -> Printf.sprintf "%s_n%d" name i);
    placed_on = [];
    pending = None;
  }

let full s = s.free = []

let planted_line k =
  Printf.sprintf "delete attribute a%d_1 from T%d@%s;" k k schema_name

(* Types are taken at chain positions 0..9 in turn (a type's position sets
   how many subtypes a change to it affects); the seed picks the chain. *)
let pick_type s =
  let pos = s.picks mod chain in
  s.picks <- s.picks + 1;
  (chain * Random.State.int s.st (types / chain)) + pos

let take_nth l i =
  let x = List.nth l i in
  (x, List.filteri (fun j _ -> j <> i) l)

let next s =
  let kind =
    match kinds.(s.n mod Array.length kinds) with
    | Add when s.free = [] -> Delete
    | Delete when s.placed_on = [] -> Add
    | k -> k
  in
  let n = 1 + (s.n mod 3) in
  s.n <- s.n + 1;
  let session =
    match kind with
    | Planted ->
        let k = pick_type s in
        { kind; lines = [ planted_line k ]; ty = k; placed = []; removed = [] }
    | Add ->
        let free = ref s.free and lines = ref [] and placed = ref [] in
        let ty = ref 0 in
        for _ = 1 to min n (List.length s.free) do
          let name, rest = take_nth !free (Random.State.int s.st (List.length !free)) in
          free := rest;
          ty := pick_type s;
          lines :=
            Printf.sprintf "add attribute %s : int to T%d@%s;" name !ty schema_name
            :: !lines;
          placed := (name, !ty) :: !placed
        done;
        { kind; lines = List.rev !lines; ty = !ty; placed = List.rev !placed; removed = [] }
    | Delete ->
        let on = ref s.placed_on and lines = ref [] and removed = ref [] in
        let ty = ref 0 in
        for _ = 1 to min n (List.length s.placed_on) do
          let (name, k), rest = take_nth !on (List.length !on - 1) in
          on := rest;
          ty := k;
          lines :=
            Printf.sprintf "delete attribute %s from T%d@%s;" name k schema_name
            :: !lines;
          removed := (name, k) :: !removed
        done;
        { kind; lines = List.rev !lines; ty = !ty; placed = []; removed = List.rev !removed }
  in
  s.pending <- Some session;
  session

(* Record the outcome of the session [next] returned last. *)
let settle s ~committed =
  match s.pending with
  | None -> invalid_arg "Gen.settle: no pending session"
  | Some ss ->
      s.pending <- None;
      if committed then begin
        List.iter
          (fun (name, ty) ->
            s.free <- List.filter (( <> ) name) s.free;
            s.placed_on <- (name, ty) :: s.placed_on)
          ss.placed;
        List.iter
          (fun (name, _) ->
            s.placed_on <- List.filter (fun (n, _) -> n <> name) s.placed_on;
            s.free <- s.free @ [ name ])
          ss.removed
      end

(* The query a writer sends after each session: every attribute, own and
   inherited, of the type it touched. *)
let attr_query k = Printf.sprintf "Type(T, \"T%d\", S), Attr_i(T, A, D)" k

(* ------------------------------------------------------------------ *)
(* Browse queries                                                      *)
(* ------------------------------------------------------------------ *)

let templates =
  [|
    (fun k -> attr_query k);
    (fun k -> Printf.sprintf "Type(T, \"T%d\", S), Decl_i(X, T, N, R)" k);
    (fun k -> Printf.sprintf "Type(T, \"T%d\", S), SubTypRel_t(T, U)" k);
    (fun k -> Printf.sprintf "Type(T, \"T%d\", S), SubTypRel_t(U, T)" k);
    (fun k ->
      Printf.sprintf "Type(T, \"T%d\", S), SubTypRel_t(T, U), Type(U, N, S)" k);
    (fun k ->
      Printf.sprintf "Type(T, \"T%d\", S), SubTypRel_t(U, T), Type(U, N, S)" k);
    (fun k -> Printf.sprintf "Type(T, \"T%d\", S), SubTypRel_t(T, U), Attr(U, A, D)" k);
  |]

(* 7 templates x 80 types = 560 distinct queries, over twice the broker's
   256-entry response cache. *)
let universe = Array.init (Array.length templates * types) (fun i ->
  templates.(i mod Array.length templates) (i / Array.length templates))

let zipf_skew = 0.3

(* [universe] indexes by popularity rank. Ranks cycle through the
   templates, and within a template through the chain positions 0..9, so
   every seed has the same mix of templates and positions at every
   popularity (a type's position sets how many supertypes and subtypes a
   query walks); the seed permutes the chains within each template. *)
let by_rank ~seed =
  let nt = Array.length templates and chains = types / chain in
  let st = rng ~seed ~stream:7 in
  let perms =
    Array.init nt (fun _ ->
        let p = Array.init chains Fun.id in
        for i = chains - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = p.(i) in
          p.(i) <- p.(j);
          p.(j) <- t
        done;
        p)
  in
  Array.init (Array.length universe) (fun r ->
      let i = r / nt in
      let ty = (chain * perms.(r mod nt).(i / chain)) + (i mod chain) in
      (ty * nt) + (r mod nt))

(* A sampler over [universe] drawing rank r with weight 1/(r+1)^skew. *)
let zipf ~seed ~skew =
  let perm = by_rank ~seed in
  let n = Array.length perm in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (r + 1)) skew);
    cdf.(r) <- !acc
  done;
  let total = !acc in
  fun st ->
    let u = Random.State.float st total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    perm.(!lo)

(* The query sequence of browse: indexes into [universe]. *)
let browse_sequence ~seed ~skew =
  let draw = zipf ~seed ~skew in
  let st = rng ~seed ~stream:100 in
  fun () -> draw st

(* ------------------------------------------------------------------ *)
(* Fixture: snapshot of the base schema plus [records] journal records   *)
(* ------------------------------------------------------------------ *)

let commit_session m =
  let delta = Core.Manager.session_delta m in
  let code = Core.Manager.session_code_changes m in
  match Core.Manager.end_session m with
  | Core.Manager.Consistent -> Some (delta, code)
  | Core.Manager.Inconsistent _ ->
      Core.Manager.rollback m;
      None

(* Build the fixture in [dir] (which must not exist): the base schema is
   committed as record 1 and checkpointed, then [records] sessions from the
   fixture stream are committed and journaled. The manager's check mode
   does not change record bytes, so the maintained mode is used for speed.
   Returns the manager (the reference state) and the last sequence number. *)
let build_fixture ~seed ~records ~dir =
  let r = Server.Journal.recover ~check_mode:Core.Manager.Maintained ~dir () in
  let m = r.Server.Journal.manager and j = r.Server.Journal.journal in
  Core.Manager.begin_session m;
  Core.Manager.load_definitions m schema_text;
  (match commit_session m with
  | Some (delta, code) ->
      ignore (Server.Journal.append j ~ids:(Core.Manager.ids m) ~code delta)
  | None -> failwith "base schema is inconsistent");
  Server.Journal.checkpoint j m;
  let s = stream ~seed ~name:"f" in
  let n = ref 0 in
  while !n < records do
    let ss = next s in
    Core.Manager.begin_session m;
    List.iter (Core.Manager.run_commands m) ss.lines;
    match commit_session m with
    | Some (delta, code) ->
        settle s ~committed:true;
        ignore (Server.Journal.append j ~ids:(Core.Manager.ids m) ~code delta);
        incr n
    | None -> settle s ~committed:false
  done;
  let seq = Server.Journal.seq j in
  Server.Journal.close j;
  (m, seq)
