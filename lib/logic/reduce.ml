(* Structural reduction of a sequential AIG before BMC encoding.

   The pipeline runs once per transition relation, between bit-blasting and
   per-frame Tseitin instantiation:

     1. Cone of influence: a fixpoint marks nodes reaching the bad/assume
        cones, pulling in next-state cones only for latches whose current-
        state variable is itself marked. Everything else is dropped.
     2. Ternary constant propagation from reset: X-valued word-parallel
        simulation ({!Sim.run_ternary}), iterated to a fixpoint over the
        latch lattice (candidate-constant | nonconstant), finds latches
        provably constant on every reachable state; their current-state
        inputs fold away.
     3. SAT sweeping (fraiging): random word-parallel simulation partitions
        nodes into candidate-equivalence classes (up to complement);
        candidate pairs are discharged by bounded {!Sat.Solver} queries and
        merged on success. FC obligations duplicate the accelerator cone by
        construction, so this collapses the copies wherever they compute
        the same function.
     4. Cone extraction: a final copy keeps only the cones of the surviving
        roots, dropping nodes orphaned by constant folding and merging.

   Every pass preserves the per-frame satisfiability of the encoded
   relation (see DESIGN.md §10 for the per-pass argument), so verdicts and
   counterexample depths are bit-for-bit unchanged. *)

type latch = { cur : Aig.lit; next : Aig.lit; init : bool }

type stats = {
  nodes_before : int;
  nodes_after : int;
  latches_before : int;
  latches_after : int;
  coi_dropped_latches : int;
  const_latches : int;
  sweep_classes : int;
  sweep_queries : int;
  sweep_merged : int;
  sweep_limited : int;
}

type t = {
  aig : Aig.t;
  bad : Aig.lit;
  assumes : Aig.lit list;
  latches : latch array;
  node_map : Aig.lit option array;  (* old node index -> reduced edge *)
  stats : stats;
}

let map t l =
  match t.node_map.(Aig.node_index l) with
  | None -> None
  | Some e -> Some (if Aig.is_complemented l then Aig.not_ e else e)

let m_coi_latches = Telemetry.Counter.make "reduce.coi.dropped_latches"
let m_const_latches = Telemetry.Counter.make "reduce.const_latches"
let m_sweep_queries = Telemetry.Counter.make "reduce.sweep.queries"
let m_sweep_merged = Telemetry.Counter.make "reduce.sweep.merged"

(* Edge lookup through a (total) node-literal map. *)
let edge_arr m l =
  let e = m.(Aig.node_index l) in
  if Aig.is_complemented l then Aig.not_ e else e

(* Edge lookup through a partial map; only valid inside marked cones. *)
let edge_opt m l =
  match m.(Aig.node_index l) with
  | None -> assert false  (* fanin of a marked node is marked *)
  | Some e -> if Aig.is_complemented l then Aig.not_ e else e

(* ---- pass 1: cone of influence ----------------------------------------- *)

(* Marks the cones of [bad]/[assumes]; reaching a latch's current-state
   node pulls in its next-state cone — unless [is_const] says the latch
   folds to a constant and so has no transition logic left. Iterative
   (explicit stack): bit-blasted cones can be deep. *)
let compute_coi aig ~bad ~assumes ~(latches : latch array) ~cur_index ~is_const =
  let n = Aig.nb_nodes aig in
  let marked = Array.make n false in
  let latch_needed = Array.make (Array.length latches) false in
  let stack = ref [] in
  let push l =
    let idx = Aig.node_index l in
    if not marked.(idx) then begin
      marked.(idx) <- true;
      stack := idx :: !stack
    end
  in
  push bad;
  List.iter push assumes;
  let rec drain () =
    match !stack with
    | [] -> ()
    | idx :: rest ->
      stack := rest;
      (match Aig.fanins aig idx with
       | Some (a, b) ->
         push a;
         push b
       | None ->
         (match Hashtbl.find_opt cur_index idx with
          | Some li when not (is_const li) ->
            if not latch_needed.(li) then begin
              latch_needed.(li) <- true;
              push latches.(li).next
            end
          | Some _ | None -> ()));
      drain ()
  in
  drain ();
  (marked, latch_needed)

(* ---- pass 2: ternary constant propagation from reset ------------------- *)

(* Greatest fixpoint over the latch lattice: start every (active) latch at
   its reset constant, simulate the transition functions with X on all
   primary inputs, and demote any latch whose next-state is not provably
   its candidate constant. On termination the surviving candidates are
   constant in every reachable state (induction on reachability: the
   ternary domain over-approximates every concrete successor). *)
let const_scan aig ~(latches : latch array) ~cur_index ~active =
  let nl = Array.length latches in
  let cand = Array.init nl (fun i -> if active.(i) then Some latches.(i).init else None) in
  let changed = ref true in
  while !changed do
    changed := false;
    let input idx =
      match Hashtbl.find_opt cur_index idx with
      | Some li when active.(li) ->
        (match cand.(li) with Some b -> Sim.t_const b | None -> Sim.t_x)
      | Some _ | None -> Sim.t_x
    in
    let t = Sim.run_ternary aig ~input in
    for i = 0 to nl - 1 do
      if active.(i) then
        match cand.(i) with
        | None -> ()
        | Some b ->
          (match Sim.read_ternary0 t latches.(i).next with
           | Some b' when b' = b -> ()
           | Some _ | None ->
             cand.(i) <- None;
             changed := true)
    done
  done;
  cand

(* ---- pass 3: SAT sweeping ---------------------------------------------- *)

(* The sweep's fixed parameters: random simulation words used to split
   candidate classes, the per-query conflict budget, and how many class
   members a node is compared against before giving up. *)
let sweep_rounds = 3
let sweep_limit = 1000
let sweep_cap = 4

(* xorshift64* from a fixed seed, so reduced graphs (and the store keys
   derived from them) are stable across runs. *)
let make_rng () =
  let st = ref 1 in
  fun () ->
    let x = !st in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    st := x;
    x land Sim.word_mask

type sweep_counters = {
  mutable classes : int;
  mutable queries : int;
  mutable merged : int;
  mutable limited : int;
}

(* Rebuilds [g1] into a fresh graph, merging nodes proved equivalent (up to
   complement). Random signatures are exact simulations, so they only
   filter candidates — correctness rests solely on the SAT queries, which
   prove equivalence over *all* input assignments. Returns the new graph
   and the total g1-node -> new-edge map. *)
let sweep_pass g1 ~counters =
  let n = Aig.nb_nodes g1 in
  let rand = make_rng () in
  let sigs = Array.init sweep_rounds (fun _ -> Sim.run g1 ~input:(fun _ -> rand ())) in
  let phase = Array.make n false in
  let key_of idx =
    let ph = sigs.(0).(idx) land 1 = 1 in
    phase.(idx) <- ph;
    Array.to_list
      (Array.map
         (fun s -> if ph then lnot s.(idx) land Sim.word_mask else s.(idx))
         sigs)
  in
  let classes : (int list, int list ref) Hashtbl.t = Hashtbl.create 256 in
  let members key =
    match Hashtbl.find_opt classes key with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add classes key r;
      counters.classes <- counters.classes + 1;
      r
  in
  (* Seed the constant class so constant-equivalent gates fold to an edge
     on node 0 rather than surviving as live logic. *)
  (members (key_of 0)) := [ 0 ];
  let solver = Sat.Solver.create () in
  let tenv = Tseitin.create solver g1 in
  let lit_of idx = Tseitin.sat_lit tenv (Aig.node_lit idx) in
  let g2 = Aig.create () in
  let map2 = Array.make n Aig.false_ in
  let exception Merged of Aig.lit in
  for idx = 1 to n - 1 do
    match Aig.fanins g1 idx with
    | None -> map2.(idx) <- Aig.input g2 (Aig.name g1 (Aig.node_lit idx))
    | Some (a, b) ->
      let before = Aig.nb_nodes g2 in
      let e = Aig.and_ g2 (edge_arr map2 a) (edge_arr map2 b) in
      if Aig.nb_nodes g2 = before then
        (* Folded to a constant or structurally shared: already reduced. *)
        map2.(idx) <- e
      else begin
        let key = key_of idx in
        let mems = members key in
        let rec try_merge tried = function
          | [] -> ()
          | _ when tried >= sweep_cap -> ()
          | m :: rest ->
            let d = phase.(idx) <> phase.(m) in
            let li = lit_of idx in
            let lm = lit_of m in
            let lm' = if d then -lm else lm in
            counters.queries <- counters.queries + 1;
            Telemetry.Counter.incr m_sweep_queries;
            (match Sat.Solver.solve_limited solver ~assumptions:[ li; -lm' ] ~conflicts:sweep_limit with
             | Some Sat.Solver.Unsat -> (
                 counters.queries <- counters.queries + 1;
                 Telemetry.Counter.incr m_sweep_queries;
                 match
                   Sat.Solver.solve_limited solver ~assumptions:[ -li; lm' ] ~conflicts:sweep_limit
                 with
                 | Some Sat.Solver.Unsat ->
                   (* idx == m xor d under every assignment: reuse m's edge. *)
                   counters.merged <- counters.merged + 1;
                   Telemetry.Counter.incr m_sweep_merged;
                   raise_notrace
                     (Merged (if d then Aig.not_ map2.(m) else map2.(m)))
                 | Some Sat.Solver.Sat -> try_merge (tried + 1) rest
                 | None ->
                   counters.limited <- counters.limited + 1;
                   try_merge (tried + 1) rest)
             | Some Sat.Solver.Sat -> try_merge (tried + 1) rest
             | None ->
               counters.limited <- counters.limited + 1;
               try_merge (tried + 1) rest)
        in
        (match try_merge 0 !mems with
         | () ->
           mems := idx :: !mems;
           map2.(idx) <- e
         | exception Merged e' -> map2.(idx) <- e')
      end
  done;
  (g2, map2)

(* ---- pass 4: cone extraction ------------------------------------------- *)

(* Copies only the cones of [roots] into a fresh graph, dropping nodes that
   constant folding or merging orphaned. Returns a partial map. *)
let extract g ~roots =
  let n = Aig.nb_nodes g in
  let keep = Array.make n false in
  let stack = ref [] in
  let push l =
    let idx = Aig.node_index l in
    if not keep.(idx) then begin
      keep.(idx) <- true;
      stack := idx :: !stack
    end
  in
  List.iter push roots;
  let rec drain () =
    match !stack with
    | [] -> ()
    | idx :: rest ->
      stack := rest;
      (match Aig.fanins g idx with
       | Some (a, b) ->
         push a;
         push b
       | None -> ());
      drain ()
  in
  drain ();
  let out = Aig.create () in
  let m = Array.make n None in
  m.(0) <- Some Aig.false_;
  for idx = 1 to n - 1 do
    if keep.(idx) then
      m.(idx) <-
        Some
          (match Aig.fanins g idx with
           | Some (a, b) -> Aig.and_ out (edge_opt m a) (edge_opt m b)
           | None -> Aig.input out (Aig.name g (Aig.node_lit idx)))
  done;
  (out, m)

(* ---- driver ------------------------------------------------------------- *)

let run ?(constants = true) ?(sweep = true) aig ~bad ~assumes
    ~(latches : latch array) =
  Telemetry.Span.with_ "reduce"
    ~args:[ ("nodes", Telemetry.Int (Aig.nb_nodes aig)) ]
    ~end_args:(fun t ->
      [ ("nodes_after", Telemetry.Int t.stats.nodes_after);
        ("latches_after", Telemetry.Int t.stats.latches_after);
        ("merged", Telemetry.Int t.stats.sweep_merged) ])
  @@ fun () ->
  let nl = Array.length latches in
  let cur_index = Hashtbl.create (2 * nl + 1) in
  Array.iteri
    (fun i (l : latch) -> Hashtbl.replace cur_index (Aig.node_index l.cur) i)
    latches;
  (* Pass 1: cone of influence. *)
  let marked, latch_needed =
    Telemetry.Span.with_ "reduce.coi" @@ fun () ->
    compute_coi aig ~bad ~assumes ~latches ~cur_index ~is_const:(fun _ -> false)
  in
  let coi_dropped =
    Array.fold_left (fun acc k -> if k then acc else acc + 1) 0 latch_needed
  in
  Telemetry.Counter.add m_coi_latches coi_dropped;
  (* Pass 2: reachable-constant latches. *)
  let const_latch =
    if constants then
      Telemetry.Span.with_ "reduce.constants" @@ fun () ->
      const_scan aig ~latches ~cur_index ~active:latch_needed
    else Array.make nl None
  in
  let n_const =
    Array.fold_left (fun acc c -> if c = None then acc else acc + 1) 0 const_latch
  in
  Telemetry.Counter.add m_const_latches n_const;
  (* Constant latches have no transition logic left: re-run COI without
     them so their next-state cones stop holding nodes live. *)
  let marked, latch_needed =
    if n_const > 0 then
      compute_coi aig ~bad ~assumes ~latches ~cur_index
        ~is_const:(fun li -> const_latch.(li) <> None)
    else (marked, latch_needed)
  in
  (* Rebuild the marked cone with constants folded in. [Aig.and_] re-runs
     local folding and structural hashing, so substituted constants cascade
     for free. *)
  let g1 = Aig.create () in
  let n = Aig.nb_nodes aig in
  let map1 = Array.make n None in
  map1.(0) <- Some Aig.false_;
  for idx = 1 to n - 1 do
    if marked.(idx) then
      map1.(idx) <-
        Some
          (match Aig.fanins aig idx with
           | Some (a, b) -> Aig.and_ g1 (edge_opt map1 a) (edge_opt map1 b)
           | None -> (
               match Hashtbl.find_opt cur_index idx with
               | Some li when const_latch.(li) <> None ->
                 Aig.of_bool (Option.get const_latch.(li))
               | Some _ | None -> Aig.input g1 (Aig.name aig (Aig.node_lit idx))))
  done;
  (* Pass 3: SAT sweeping on the rebuilt graph. *)
  let counters = { classes = 0; queries = 0; merged = 0; limited = 0 } in
  let g2, map2 =
    if sweep then
      Telemetry.Span.with_ "reduce.sweep" @@ fun () ->
      sweep_pass g1 ~counters
    else (g1, Array.init (Aig.nb_nodes g1) Aig.node_lit)
  in
  (* Into-g2 composition for the surviving roots. *)
  let to_g2 l =
    match map1.(Aig.node_index l) with
    | None -> None
    | Some e1 ->
      let e2 = edge_arr map2 e1 in
      Some (if Aig.is_complemented l then Aig.not_ e2 else e2)
  in
  let bad2 = Option.get (to_g2 bad) in
  let assumes2 = List.map (fun a -> Option.get (to_g2 a)) assumes in
  let kept = ref [] in
  for i = nl - 1 downto 0 do
    if latch_needed.(i) && const_latch.(i) = None then
      kept :=
        ( Option.get (to_g2 latches.(i).cur),
          Option.get (to_g2 latches.(i).next),
          latches.(i).init )
        :: !kept
  done;
  let kept = Array.of_list !kept in
  (* Pass 4: keep only the cones the encoder will ever walk. Latch
     current-state inputs are roots too — frames bind them. *)
  let roots =
    bad2 :: assumes2
    @ Array.fold_left (fun acc (c, nx, _) -> c :: nx :: acc) [] kept
  in
  let g3, map3 = extract g2 ~roots in
  let to_g3 e2 =
    match map3.(Aig.node_index e2) with
    | None -> None
    | Some e3 -> Some (if Aig.is_complemented e2 then Aig.not_ e3 else e3)
  in
  let node_map =
    Array.map
      (function
        | None -> None
        | Some e1 -> to_g3 (edge_arr map2 e1))
      map1
  in
  let latches3 =
    Array.map
      (fun (c, nx, init) ->
        { cur = Option.get (to_g3 c); next = Option.get (to_g3 nx); init })
      kept
  in
  {
    aig = g3;
    bad = Option.get (to_g3 bad2);
    assumes = List.map (fun a -> Option.get (to_g3 a)) assumes2;
    latches = latches3;
    node_map;
    stats =
      {
        nodes_before = n;
        nodes_after = Aig.nb_nodes g3;
        latches_before = nl;
        latches_after = Array.length latches3;
        coi_dropped_latches = coi_dropped;
        const_latches = n_const;
        sweep_classes = counters.classes;
        sweep_queries = counters.queries;
        sweep_merged = counters.merged;
        sweep_limited = counters.limited;
      };
  }

(* ---- temporal decomposition -------------------------------------------- *)

(* Ternary-simulate the unrolling itself: row 0 is the reset state, row
   f+1 evaluates every next-state cone with all primary inputs X and the
   latch state from row f. A bit defined at row f holds at cycle f of
   every execution from reset (the ternary domain over-approximates each
   step), so the encoder may bind that latch to the constant in frame f
   and skip its transition cone entirely. Unlike the reachable-constant
   pass, this needs no fixpoint — values typically stay defined for the
   first few cycles (pipelines filling, counters still in range) and decay
   to X; once a row repeats, every later row equals it. *)
let frame_constants aig ~(latches : latch array) ~depth =
  let nl = Array.length latches in
  let cur_index = Hashtbl.create (2 * nl + 1) in
  Array.iteri
    (fun i (l : latch) -> Hashtbl.replace cur_index (Aig.node_index l.cur) i)
    latches;
  let read_cur row i =
    (* The value of the cur *node*; [row] holds edge values, and blasted
       cur edges are plain input nodes, but stay safe under complement. *)
    match row.(i) with
    | None -> Sim.t_x
    | Some b -> Sim.t_const (if Aig.is_complemented latches.(i).cur then not b else b)
  in
  let step row =
    let input idx =
      match Hashtbl.find_opt cur_index idx with
      | Some li -> read_cur row li
      | None -> Sim.t_x
    in
    let t = Sim.run_ternary aig ~input in
    Array.init nl (fun i -> Sim.read_ternary0 t latches.(i).next)
  in
  let rows = Array.make (depth + 1) [||] in
  rows.(0) <- Array.init nl (fun i -> Some latches.(i).init);
  let fixed = ref false in
  for f = 1 to depth do
    if !fixed then rows.(f) <- rows.(f - 1)
    else begin
      rows.(f) <- step rows.(f - 1);
      if rows.(f) = rows.(f - 1) then fixed := true
    end
  done;
  rows
