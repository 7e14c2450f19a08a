type frame = {
  inputs : (string * Bitvec.t) list;
  regs : (string * Bitvec.t) list;
}

type t = {
  property : string;
  frames : frame list;
}

let length t = List.length t.frames

let pp fmt t =
  Format.fprintf fmt "@[<v>counterexample to %s (%d cycles):@," t.property
    (length t);
  List.iteri
    (fun i f ->
      Format.fprintf fmt "  cycle %d:@," i;
      List.iter
        (fun (n, v) -> Format.fprintf fmt "    in  %-16s = %a@," n Bitvec.pp v)
        f.inputs;
      List.iter
        (fun (n, v) -> Format.fprintf fmt "    reg %-16s = %a@," n Bitvec.pp v)
        f.regs)
    t.frames;
  Format.fprintf fmt "@]"

let replay_result sim t prop =
  Rtl.Sim.reset sim;
  let rec go cycle = function
    | [] -> None
    | f :: rest ->
      List.iter (fun (name, v) -> Rtl.Sim.set_input sim name v) f.inputs;
      (* A cycle that breaks a circuit assumption is outside the checked
         behaviour: the trace witnesses nothing from that point on. *)
      if not (Rtl.Sim.assumes_hold sim) then None
      else if Bitvec.is_zero (Rtl.Sim.peek sim prop) then Some cycle
      else begin
        Rtl.Sim.step sim;
        go (cycle + 1) rest
      end
  in
  go 0 t.frames

(* A trace claims a violation in its final frame; a violation anywhere else
   means the claimed depth is wrong (an encoding bug), so only the exact
   cycle confirms. *)
let replay sim t prop = replay_result sim t prop = Some (length t - 1)

(* All signal names appearing in the trace, inputs first. *)
let signal_rows t =
  match t.frames with
  | [] -> ([], [])
  | f :: _ -> (List.map fst f.inputs, List.map fst f.regs)

let column_values t kind name =
  List.map
    (fun f ->
      let l = match kind with `In -> f.inputs | `Reg -> f.regs in
      List.assoc_opt name l)
    t.frames

let pp_waveform fmt t =
  let inputs, regs = signal_rows t in
  let n = length t in
  let name_w =
    List.fold_left (fun acc s -> max acc (String.length s)) 8 (inputs @ regs)
  in
  (* Column width: wide enough for the hex digits of the widest signal. *)
  let hex_digits v = (Bitvec.width v + 3) / 4 in
  let col_w =
    List.fold_left
      (fun acc f ->
        List.fold_left
          (fun acc (_, v) ->
            max acc (if Bitvec.width v = 1 then 1 else hex_digits v))
          acc (f.inputs @ f.regs))
      2 t.frames
  in
  Format.fprintf fmt "@[<v>waveform for %s (%d cycles):@," t.property n;
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  (* Cycle ruler. *)
  Format.fprintf fmt "%s " (pad "cycle" name_w);
  List.iteri
    (fun i _ -> Format.fprintf fmt "%s " (pad (string_of_int i) col_w))
    t.frames;
  Format.fprintf fmt "@,";
  let cell v =
    match v with
    | None -> pad "." col_w
    | Some v ->
      if Bitvec.width v = 1 then
        pad (if Bitvec.is_zero v then "_" else "#") col_w
      else
        let s = Bitvec.to_hex_string v in
        (* strip 0x prefix and :w suffix *)
        let body =
          match String.index_opt s ':' with
          | Some colon -> String.sub s 2 (colon - 2)
          | None -> s
        in
        pad body col_w
  in
  let row kind name =
    Format.fprintf fmt "%s " (pad name name_w);
    List.iter
      (fun v -> Format.fprintf fmt "%s " (cell v))
      (column_values t kind name);
    Format.fprintf fmt "@,"
  in
  List.iter (row `In) inputs;
  List.iter (row `Reg) regs;
  Format.fprintf fmt "@]"
