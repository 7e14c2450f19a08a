module Clause = struct
  (* Clauses as sorted literal lists, tautologies removed. *)
  let normalize c =
    let c = List.sort_uniq Int.compare c in
    if List.exists (fun l -> List.mem (-l) c) c then None else Some c

  let subsumes a b =
    (* a subsumes b iff a is a subset of b. Both sorted. *)
    let rec go a b =
      match a, b with
      | [], _ -> true
      | _, [] -> false
      | x :: a', y :: b' ->
        if x = y then go a' b'
        else if x > y then go a b'
        else false
    in
    go a b
end

(* Remove subsumed clauses and apply self-subsuming resolution:
   if a \ {l} subsumes b and -l ∈ b, then b can drop -l.

   Near-linear in practice instead of all-pairs: candidate partners come
   from per-literal occurrence lists (a subsuming clause must share its
   least-occurring literal with the subsumed one), and a 64-bit Bloom
   signature over variables rejects most candidates without touching the
   literal lists — a ⊆ b requires sig(a) ⊆ sig(b). Occurrence lists are
   not rewritten when a clause is strengthened or dropped; stale entries
   are filtered by the [alive] check and the exact subset test, so they
   cost time, never correctness. *)
let signature c =
  List.fold_left (fun s l -> s lor (1 lsl (abs l mod 62))) 0 c

let subsumption_pass clauses =
  (* Deduplicate and sort for deterministic behaviour. *)
  let cs = List.sort_uniq compare clauses in
  let arr = Array.of_list cs in
  let n = Array.length arr in
  let alive = Array.make n true in
  let sigs = Array.map signature arr in
  let occ : (int, int list ref) Hashtbl.t = Hashtbl.create (4 * n + 1) in
  let occs l = match Hashtbl.find_opt occ l with Some r -> !r | None -> [] in
  Array.iteri
    (fun i c ->
      List.iter
        (fun l ->
          match Hashtbl.find_opt occ l with
          | Some r -> r := i :: !r
          | None -> Hashtbl.add occ l (ref [ i ]))
        c)
    arr;
  (* Self-subsuming resolution: partners of (a, l) are the clauses
     containing -l. The Bloom check lets literal(s) of a map into either
     b's buckets or l's own bucket (l itself is dropped from a). *)
  for i = 0 to n - 1 do
    if alive.(i) then
      List.iter
        (fun l ->
          List.iter
            (fun j ->
              if j <> i && alive.(j)
                 && sigs.(i) land lnot (sigs.(j) lor (1 lsl (abs l mod 62))) = 0
              then begin
                let b = arr.(j) in
                if List.mem (-l) b then begin
                  let a' = List.filter (fun x -> x <> l) arr.(i) in
                  let b' = List.filter (fun x -> x <> -l) b in
                  if Clause.subsumes a' b' && List.length b' < List.length b
                  then begin
                    arr.(j) <- b';
                    sigs.(j) <- signature b'
                  end
                end
              end)
            (occs (-l)))
        arr.(i)
  done;
  (* Forward subsumption: clause i kills its strict supersets; among
     set-equal clauses (strengthening can re-create duplicates) the
     earliest index survives. Candidates share i's least-occurring
     literal; the empty clause subsumes everything. *)
  let least_occurring c =
    match c with
    | [] -> None
    | l :: rest ->
      Some
        (List.fold_left
           (fun best x ->
             if List.compare_length_with (occs x) (List.length (occs best)) < 0
             then x
             else best)
           l rest)
  in
  for i = 0 to n - 1 do
    if alive.(i) then begin
      let candidates =
        match least_occurring arr.(i) with
        | Some l -> occs l
        | None -> List.init n (fun j -> j)
      in
      List.iter
        (fun j ->
          if j <> i && alive.(j) && alive.(i)
             && sigs.(i) land lnot sigs.(j) = 0
             && Clause.subsumes arr.(i) arr.(j)
          then
            if arr.(i) = arr.(j) && j < i then alive.(i) <- false
            else alive.(j) <- false)
        candidates
    end
  done;
  let keep = ref [] in
  for i = n - 1 downto 0 do
    if alive.(i) then keep := arr.(i) :: !keep
  done;
  !keep

(* The pass as a standalone CNF cleanup: any model of the result satisfies
   every dropped clause (it is a superset of a kept one) and every
   strengthened clause's original (a superset of the strengthened form),
   so satisfiability, models and RUP-checkability are preserved. *)
let subsume clauses =
  subsumption_pass (List.filter_map Clause.normalize clauses)
