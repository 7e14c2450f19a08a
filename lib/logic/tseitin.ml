(* Polarity-aware (Plaisted–Greenbaum) Tseitin encoding.

   For a gate variable v <-> a /\ b the full biconditional needs three
   clauses. But a clause set only constrains v in the directions it is
   used: if v is only ever *asserted* (appears positively under the
   formula's polarity), the two clauses (-v a)(-v b) suffice — a model of
   the reduced set maps to a model of the full set by recomputing v from
   its fanins — and dually (v -a -b) alone suffices for pure negative use.
   So each node tracks a mask of the clause halves already emitted (bit 0:
   positive half, bit 1: negative half) and [node_value] emits only what
   the caller's polarity needs, on demand and monotonically: a later caller
   wanting the other half gets exactly the missing clauses added.
   Complemented edges flip the wanted polarity on the way down; callers
   that read values back from a model (trace extraction, [bind]ings used
   both ways) ask for [Both]. *)

type value =
  | Cst of bool
  | Lit of int

type polarity = Pos | Neg | Both

type env = {
  solver : Sat.Solver.t;
  aig : Aig.t;
  map : (int, value) Hashtbl.t;  (* AIG node index -> value of the node *)
  pol : (int, int) Hashtbl.t;    (* node index -> emitted-halves mask *)
  mutable const_var : int;       (* SAT var asserted true, 0 when unallocated *)
}

let m_vars = Telemetry.Counter.make "tseitin.vars"
let m_clauses = Telemetry.Counter.make "tseitin.clauses"

let create solver aig =
  { solver; aig; map = Hashtbl.create 256; pol = Hashtbl.create 256; const_var = 0 }

let new_var env =
  Telemetry.Counter.incr m_vars;
  Sat.Solver.new_var env.solver

let emit env c =
  Telemetry.Counter.incr m_clauses;
  Sat.Solver.add_clause env.solver c

let const_true env =
  if env.const_var = 0 then begin
    let v = new_var env in
    emit env [ v ];
    env.const_var <- v
  end;
  env.const_var

let check_bindable env l what =
  let idx = Aig.node_index l in
  if not (Aig.is_input env.aig l) then
    invalid_arg (Printf.sprintf "Tseitin.%s: literal is not an input node" what);
  if Hashtbl.mem env.map idx then
    invalid_arg (Printf.sprintf "Tseitin.%s: node already bound" what);
  idx

let bind env l sat =
  let idx = check_bindable env l "bind" in
  Hashtbl.add env.map idx (Lit sat);
  Hashtbl.replace env.pol idx 3

let bind_const env l b =
  let idx = check_bindable env l "bind_const" in
  Hashtbl.add env.map idx (Cst b);
  Hashtbl.replace env.pol idx 3

let neg_value = function
  | Cst b -> Cst (not b)
  | Lit l -> Lit (-l)

let mask_of = function Pos -> 1 | Neg -> 2 | Both -> 3
let flip = function Pos -> Neg | Neg -> Pos | Both -> Both

let emitted env idx = try Hashtbl.find env.pol idx with Not_found -> 0

let rec node_value env idx ~need =
  let want = mask_of need in
  let have = emitted env idx in
  match Hashtbl.find_opt env.map idx with
  | Some v when want land lnot have = 0 -> v
  | prev ->
    let v =
      if idx = 0 then Cst false
      else
        match Aig.fanins env.aig idx with
        | None ->
          (* Free input: a variable constrains nothing, any polarity holds. *)
          (match prev with Some v -> v | None -> Lit (new_var env))
        | Some (a, b) -> (
            (* Recurse with the wanted polarity even when this node already
               has its variable: a folded-through or already-encoded node
               must still propagate the new polarity to its cone. *)
            match edge_value env a ~need, edge_value env b ~need with
            | Cst false, _ | _, Cst false -> Cst false
            | Cst true, v | v, Cst true -> v
            | Lit la, Lit lb ->
              if la = lb then Lit la
              else if la = -lb then Cst false
              else begin
                let v =
                  match prev with
                  | Some (Lit v) -> v
                  | Some (Cst _) -> assert false  (* folding is deterministic *)
                  | None -> new_var env
                in
                let missing = want land lnot have in
                if missing land 1 <> 0 then begin
                  (* v -> la /\ lb *)
                  emit env [ -v; la ];
                  emit env [ -v; lb ]
                end;
                if missing land 2 <> 0 then
                  (* la /\ lb -> v *)
                  emit env [ v; -la; -lb ];
                Lit v
              end)
    in
    Hashtbl.replace env.map idx v;
    Hashtbl.replace env.pol idx
      (match v with Cst _ -> 3 | Lit _ -> have lor want);
    v

and edge_value env l ~need =
  let idx = Aig.node_index l in
  if Aig.is_complemented l then neg_value (node_value env idx ~need:(flip need))
  else node_value env idx ~need

let value_of ?(pol = Both) env l = edge_value env l ~need:pol

let sat_lit ?(pol = Both) env l =
  match edge_value env l ~need:pol with
  | Lit s -> s
  | Cst true -> const_true env
  | Cst false -> - (const_true env)

(* [Pos] suffices for soundness of an asserted literal (the one-sided
   clauses propagate the assertion down the cone), and is what
   Plaisted–Greenbaum prescribes. It is not the default: in the incremental
   BMC loop the one-sided cones starve unit propagation on the UNSAT
   depths — measured on the AES FC obligation, [Pos] here and at the query
   literal costs ~50% more conflicts at depth 10 and over 4x the wall time
   at depth 13 — so callers on the solving hot path ask for the full
   biconditional and [Pos] stays the opt-in for clause-count-sensitive
   one-shot uses. *)
let assert_true ?(pol = Both) env l =
  match edge_value env l ~need:pol with
  | Cst true -> ()
  | Cst false ->
    (* Contradiction: force unsatisfiability. *)
    let t = const_true env in
    Sat.Solver.add_clause env.solver [ -t ]
  | Lit s -> emit env [ s ]

