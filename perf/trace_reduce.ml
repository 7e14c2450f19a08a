(* Reduces an exported Chrome trace ([Telemetry.export_file]) to closed
   spans with total and self time. Begin/end events are matched per
   track (tid) with a stack; a span's self time is its duration minus
   the time its direct children cover. Every span name is kept, so spans
   added to the program later show up in [pp_table] without any change
   here. *)

module J = Report.Json

type span = {
  name : string;
  root : string;  (** name of the outermost span open on its track *)
  args : (string * J.t) list;  (** begin-event args, then end-event args *)
  dur : float;  (** seconds *)
  self : float;  (** seconds not covered by a direct child *)
  children : (string * float) list;  (** direct children: (name, dur) *)
}

type open_span = {
  o_name : string;
  o_root : string;
  o_ts : float;
  o_args : (string * J.t) list;
  mutable o_children : (string * float) list;
}

let of_events events =
  let stacks = Hashtbl.create 8 in
  let closed = ref [] in
  List.iter
    (fun e ->
      let tid = J.int_or 0 (J.member "tid" e) in
      let ts = J.float_or 0. (J.member "ts" e) *. 1e-6 in
      let name = J.str_or "" (J.member "name" e) in
      let args = match J.member "args" e with J.Obj kv -> kv | _ -> [] in
      let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
      match J.str_or "" (J.member "ph" e) with
      | "B" ->
        let root = match stack with [] -> name | top :: _ -> top.o_root in
        Hashtbl.replace stacks tid
          ({ o_name = name; o_root = root; o_ts = ts; o_args = args;
             o_children = [] }
           :: stack)
      | "E" -> (
          match stack with
          | o :: rest when o.o_name = name ->
            let dur = ts -. o.o_ts in
            let covered =
              List.fold_left (fun acc (_, d) -> acc +. d) 0. o.o_children
            in
            closed :=
              { name; root = o.o_root; args = o.o_args @ args; dur;
                self = dur -. covered; children = List.rev o.o_children }
              :: !closed;
            (match rest with
             | p :: _ -> p.o_children <- (name, dur) :: p.o_children
             | [] -> ());
            Hashtbl.replace stacks tid rest
          | _ -> () (* unmatched end event: ignored *))
      | _ -> ())
    events;
  List.rev !closed

let load path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_events (J.to_list (J.member "traceEvents" (J.of_string text)))

(* Sum of [f] over spans named [name], optionally only those under
   [root]. *)
let sum ?root f name spans =
  List.fold_left
    (fun acc s ->
      if s.name = name && (match root with None -> true | Some r -> s.root = r)
      then acc +. f s
      else acc)
    0. spans

let total ?root name spans = sum ?root (fun s -> s.dur) name spans
let self ?root name spans = sum ?root (fun s -> s.self) name spans

let child_dur name s =
  List.fold_left (fun acc (n, d) -> if n = name then acc +. d else acc) 0.
    s.children

(* Per-name count, total and self time, largest total first. *)
let table spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let n, t, sf =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace tbl s.name (n + 1, t +. s.dur, sf +. s.self))
    spans;
  Hashtbl.fold (fun name (n, t, sf) acc -> (name, n, t, sf) :: acc) tbl []
  |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a)

let pp_table oc spans =
  Printf.fprintf oc "%-22s %8s %12s %12s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (name, n, t, sf) ->
      Printf.fprintf oc "%-22s %8d %12.6f %12.6f\n" name n t sf)
    (table spans)
