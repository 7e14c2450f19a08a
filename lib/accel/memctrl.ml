module Ir = Rtl.Ir

type config =
  | Fifo_mode
  | Double_buffer
  | Line_buffer
  | Accumulator

type bug =
  | Fifo_oversize_ready
  | Fifo_count_narrow
  | Fifo_ready_stuck
  | Fifo_out_early
  | Fifo_clock_gate
  | Fifo_ptr_wrap
  | Db_swap_early
  | Db_wptr_noreset
  | Db_ready_during_swap
  | Db_read_write_bank
  | Db_full_flag_race
  | Lb_window_index
  | Lb_coeff_swap
  | Lb_valid_early
  | Lb_drop_backpressure
  | Ctrl_turn_skip

let config_name = function
  | Fifo_mode -> "fifo"
  | Double_buffer -> "double_buffer"
  | Line_buffer -> "line_buffer"
  | Accumulator -> "accumulator"

let bug_name = function
  | Fifo_oversize_ready -> "fifo_oversize_ready"
  | Fifo_count_narrow -> "fifo_count_narrow"
  | Fifo_ready_stuck -> "fifo_ready_stuck"
  | Fifo_out_early -> "fifo_out_early"
  | Fifo_clock_gate -> "fifo_clock_gate"
  | Fifo_ptr_wrap -> "fifo_ptr_wrap"
  | Db_swap_early -> "db_swap_early"
  | Db_wptr_noreset -> "db_wptr_noreset"
  | Db_ready_during_swap -> "db_ready_during_swap"
  | Db_read_write_bank -> "db_read_write_bank"
  | Db_full_flag_race -> "db_full_flag_race"
  | Lb_window_index -> "lb_window_index"
  | Lb_coeff_swap -> "lb_coeff_swap"
  | Lb_valid_early -> "lb_valid_early"
  | Lb_drop_backpressure -> "lb_drop_backpressure"
  | Ctrl_turn_skip -> "ctrl_turn_skip"

let bug_config = function
  | Fifo_oversize_ready | Fifo_count_narrow | Fifo_ready_stuck
  | Fifo_out_early | Fifo_clock_gate | Fifo_ptr_wrap | Ctrl_turn_skip ->
    Fifo_mode
  | Db_swap_early | Db_wptr_noreset | Db_ready_during_swap
  | Db_read_write_bank | Db_full_flag_race ->
    Double_buffer
  | Lb_window_index | Lb_coeff_swap | Lb_valid_early | Lb_drop_backpressure ->
    Line_buffer

let bug_info = function
  | Fifo_oversize_ready ->
    ("in_ready advertised while the queue is full; the pushed element is \
      silently dropped", "FC")
  | Fifo_count_narrow ->
    ("occupancy counter one bit too narrow, so a full queue aliases an \
      empty one and stale slots are replayed", "FC")
  | Fifo_ready_stuck ->
    ("once the queue has been full, in_ready never re-asserts", "RB")
  | Fifo_out_early ->
    ("out_valid asserted while the queue is empty, emitting a stale slot",
     "FC")
  | Fifo_clock_gate ->
    ("clock_enable disconnected from the queue's pop path (Fig. 2 class): \
      pausing on the right cycle loses the head element", "FC")
  | Fifo_ptr_wrap ->
    ("write-address decoder stale on the first cycle after a clock-enable \
      pause: that push lands in slot 0 regardless of the write pointer",
     "FC")
  | Db_swap_early ->
    ("banks swap when the writer has filled size-1 elements; the last \
      element of every batch is lost", "FC")
  | Db_wptr_noreset ->
    ("write pointer not cleared on swap; the next batch lands outside the \
      bank and the output stream stalls", "RB")
  | Db_ready_during_swap ->
    ("in_ready stays high during the swap cycle; that input is dropped",
     "FC")
  | Db_read_write_bank ->
    ("bank-select inversion: the reader waits on the bank being written, \
      which is never full — no output is ever produced", "RB")
  | Db_full_flag_race ->
    ("full flag cleared one cycle early, letting the writer overwrite the \
      slot the reader has not yet emitted", "FC")
  | Lb_window_index ->
    ("the third pixel is sampled from the input bus one cycle after the \
      handshake (array indexing/timing error class of Table 2)", "FC")
  | Lb_coeff_swap ->
    ("stencil computes 2*p0 + p1 + p2 instead of p0 + 2*p1 + p2 — \
      consistently wrong, invisible to FC, caught by SAC", "SAC")
  | Lb_valid_early ->
    ("out_valid one pipeline stage early: the first result of a burst is \
      the stale pipeline register", "FC")
  | Lb_drop_backpressure ->
    ("result register reloaded even when the host has not taken the \
      previous output; backpressure loses results", "FC")
  | Ctrl_turn_skip ->
    ("service arbiter increments by two when the queue count is a power of \
      two, starving the output stage in a corner case", "RB")

let all_bugs =
  [
    Fifo_oversize_ready; Fifo_count_narrow; Fifo_ready_stuck; Fifo_out_early;
    Fifo_clock_gate; Fifo_ptr_wrap; Db_swap_early; Db_wptr_noreset;
    Db_ready_during_swap; Db_read_write_bank; Db_full_flag_race;
    Lb_window_index; Lb_coeff_swap; Lb_valid_early; Lb_drop_backpressure;
    Ctrl_turn_skip;
  ]

let corner_case_bugs = [ Fifo_clock_gate; Fifo_ptr_wrap ]

let fifo_depth = 2
let bank_size = 2
let pixel_width = 3

let data_width = function
  | Fifo_mode | Double_buffer | Accumulator -> 4
  | Line_buffer -> 3 * pixel_width

let out_width = function
  | Fifo_mode | Double_buffer | Accumulator -> 4
  | Line_buffer -> pixel_width + 2

let tau = function
  | Fifo_mode -> 6
  | Double_buffer -> (2 * bank_size) + 4
  | Line_buffer -> 6
  | Accumulator -> 4

(* ---- FIFO configuration ------------------------------------------------ *)

(* A hand-rolled queue so each defect can be wired at the exact spot it
   would occur in real RTL. *)
let build_fifo ?bug c ~in_valid ~in_data ~out_ready ~ce =
  let w = data_width Fifo_mode in
  let depth = fifo_depth in
  let aw = 1 in
  let cw = if bug = Some Fifo_count_narrow then aw else aw + 1 in
  let slots = Array.init depth (fun i -> Ir.reg0 c (Printf.sprintf "q_slot%d" i) w) in
  let rd = Ir.reg0 c "q_rd" aw in
  let wr = Ir.reg0 c "q_wr" aw in
  let count = Ir.reg0 c "q_count" cw in

  let full =
    if bug = Some Fifo_count_narrow then
      (* With the narrow counter, depth wraps to 0: full never detected. *)
      Ir.gnd c
    else Ir.eq_const count depth
  in
  let empty = Ir.eq_const count 0 in

  let was_full = Ir.reg0 c "q_was_full" 1 in
  Ir.connect c was_full (Ir.logor was_full full);

  let in_ready_raw =
    match bug with
    | Some Fifo_oversize_ready -> Ir.vdd c
    | Some Fifo_ready_stuck -> Ir.lognot (Ir.logor full was_full)
    | _ -> Ir.lognot full
  in
  let in_ready = Ir.logand ce in_ready_raw in
  let in_fire = Ir.logand in_valid in_ready in
  let do_push = Ir.and_list c [ in_fire; Ir.lognot full; ce ] in

  let out_valid_raw =
    match bug with
    | Some Fifo_out_early -> Ir.vdd c
    | _ -> Ir.lognot empty
  in
  (* Service arbiter: a turn counter that must point at the output stage
     for a pop to happen. Normally it alternates 0/1 every cycle, so the
     queue drains at half rate; the Ctrl_turn_skip bug makes it skip the
     output turn when the occupancy is exactly a power of two. *)
  let turn = Ir.reg0 c "q_turn" 1 in
  let skip =
    match bug with
    | Some Ctrl_turn_skip -> Ir.eq_const count fifo_depth
    | _ -> Ir.gnd c
  in
  Ir.connect c turn
    (Ir.mux ce (Ir.mux skip turn (Ir.lognot turn)) turn);
  let out_turn_here = Ir.eq_const turn 1 in

  let out_valid = Ir.and_list c [ ce; out_valid_raw; out_turn_here ] in
  let out_fire = Ir.logand out_valid out_ready in
  let pop_enable = if bug = Some Fifo_clock_gate then Ir.vdd c else ce in
  let do_pop_request =
    match bug with
    | Some Fifo_clock_gate ->
      (* The pop decision escapes the clock gate entirely: pausing while
         the output stage holds a valid handshake loses the element. *)
      Ir.and_list c
        [ out_valid_raw; out_turn_here; out_ready ]
    | _ -> out_fire
  in
  let do_pop =
    Ir.and_list c [ pop_enable; do_pop_request; Ir.lognot empty ]
  in

  (* Resume glitch (Fifo_ptr_wrap): the write-address decoder register is
     not refreshed during a pause, so the first push after resuming lands
     in slot 0 whatever the write pointer says. *)
  let resume_glitch =
    match bug with
    | Some Fifo_ptr_wrap ->
      let prev_ce = Ir.reg0 c "q_prev_ce" 1 in
      Ir.connect c prev_ce ce;
      Ir.lognot prev_ce
    | _ -> Ir.gnd c
  in
  Array.iteri
    (fun i s ->
      let normal = Ir.eq_const wr i in
      let wsel =
        if i = 0 then Ir.logor resume_glitch normal
        else Ir.logand normal (Ir.lognot resume_glitch)
      in
      let here = Ir.logand do_push wsel in
      Ir.connect c s (Ir.mux here in_data s))
    slots;

  let bump ptr cond =
    Ir.connect c ptr (Ir.mux cond (Ir.add ptr (Ir.constant c ~width:aw 1)) ptr)
  in
  bump wr do_push;
  bump rd do_pop;
  let cnt1 = Ir.constant c ~width:cw 1 in
  Ir.connect c count
    (Ir.mux (Ir.logand do_push do_pop) count
       (Ir.mux do_push (Ir.add count cnt1)
          (Ir.mux do_pop (Ir.sub count cnt1) count)));

  let out_data = Ir.mux_n rd (Array.to_list slots) in
  (in_ready, out_valid, out_data)

(* ---- Double-buffer configuration --------------------------------------- *)

let build_double ?bug c ~in_valid ~in_data ~out_ready ~ce =
  let w = data_width Double_buffer in
  let b = bank_size in
  let pw = 2 in
  let bank =
    Array.init 2 (fun k ->
        Array.init b (fun i -> Ir.reg0 c (Printf.sprintf "bank%d_%d" k i) w))
  in
  let wr_bank = Ir.reg0 c "wr_bank" 1 in
  let wr_ptr = Ir.reg0 c "wr_ptr" pw in
  let rd_ptr = Ir.reg0 c "rd_ptr" pw in
  let bank_full = Array.init 2 (fun k -> Ir.reg0 c (Printf.sprintf "full%d" k) 1) in

  let full_of_wr = Ir.mux wr_bank bank_full.(1) bank_full.(0) in
  (* The reader follows its own bank pointer, toggled after each completed
     drain, so bank order (and hence output order) is preserved even when
     the writer swaps mid-drain. The bank-select-inversion bug ties the
     reader to the writer's bank instead. *)
  let rd_bank_reg = Ir.reg0 c "rd_bank" 1 in
  let rd_bank =
    match bug with
    | Some Db_read_write_bank -> wr_bank
    | _ -> rd_bank_reg
  in
  let full_of_rd = Ir.mux rd_bank bank_full.(1) bank_full.(0) in

  let fill_target = if bug = Some Db_swap_early then b - 1 else b in
  let writing = Ir.logand ce (Ir.lognot full_of_wr) in
  let swap_now =
    Ir.and_list c
      [ writing; in_valid; Ir.eq_const wr_ptr (fill_target - 1) ]
  in
  let in_ready_raw = Ir.lognot full_of_wr in
  let in_ready =
    match bug with
    | Some Db_ready_during_swap ->
      (* Keeps ready high on the cycle after a swap even though the write
         pointer logic ignores that input. *)
      Ir.logand ce (Ir.logor in_ready_raw (Ir.reg_fb c "swapped_d" ~init:(Bitvec.zero 1) (fun _ -> swap_now)))
    | _ -> Ir.logand ce in_ready_raw
  in
  let in_fire = Ir.logand in_valid in_ready in
  let do_write = Ir.and_list c [ in_fire; writing ] in

  Array.iteri
    (fun k bank_k ->
      Array.iteri
        (fun i s ->
          let here =
            Ir.and_list c
              [ do_write;
                Ir.eq_const wr_bank k;
                Ir.eq_const wr_ptr i ]
          in
          Ir.connect c s (Ir.mux here in_data s))
        bank_k)
    bank;

  let wr_ptr_next =
    let bumped = Ir.add wr_ptr (Ir.constant c ~width:pw 1) in
    let after_write = Ir.mux do_write bumped wr_ptr in
    if bug = Some Db_wptr_noreset then after_write
    else Ir.mux swap_now (Ir.constant c ~width:pw 0) after_write
  in
  Ir.connect c wr_ptr wr_ptr_next;
  Ir.connect c wr_bank (Ir.mux swap_now (Ir.lognot wr_bank) wr_bank);

  (* Reader drains the full bank. *)
  let out_valid = Ir.logand ce full_of_rd in
  let out_fire = Ir.logand out_valid out_ready in
  let rd_data =
    let sel = Ir.select rd_ptr ~hi:0 ~lo:0 in
    Ir.mux rd_bank
      (Ir.mux_n sel (Array.to_list bank.(1)))
      (Ir.mux_n sel (Array.to_list bank.(0)))
  in
  let last_rd = Ir.eq_const rd_ptr (b - 1) in
  let drain_done = Ir.logand out_fire last_rd in
  Ir.connect c rd_ptr
    (Ir.mux drain_done (Ir.constant c ~width:pw 0)
       (Ir.mux out_fire (Ir.add rd_ptr (Ir.constant c ~width:pw 1)) rd_ptr));
  Ir.connect c rd_bank_reg
    (Ir.mux drain_done (Ir.lognot rd_bank_reg) rd_bank_reg);

  Array.iteri
    (fun k flag ->
      let set = Ir.logand swap_now (Ir.eq_const wr_bank k) in
      let is_rd_bank = Ir.eq (Ir.constant c ~width:1 k) rd_bank in
      let clear_normal = Ir.logand drain_done is_rd_bank in
      let clear =
        match bug with
        | Some Db_full_flag_race ->
          (* Cleared one element early: the writer may claim the bank while
             its last element is still unemitted. *)
          Ir.logor clear_normal
            (Ir.and_list c
               [ out_fire; is_rd_bank; Ir.eq_const rd_ptr (b - 2) ])
        | _ -> clear_normal
      in
      Ir.connect c flag
        (Ir.mux set (Ir.vdd c) (Ir.mux clear (Ir.gnd c) flag)))
    bank_full;

  (in_ready, out_valid, rd_data)

(* ---- Line-buffer configuration ------------------------------------------ *)

(* Input: three packed pixels; two-stage pipeline computing the stencil
   p0 + 2*p1 + p2. Single outstanding transaction (busy/valid handshake). *)
let build_line ?bug c ~in_valid ~in_data ~out_ready ~ce =
  let pw = pixel_width in
  let ow = out_width Line_buffer in
  let p k = Ir.select in_data ~hi:(((k + 1) * pw) - 1) ~lo:(k * pw) in
  let busy = Ir.reg0 c "lb_busy" 1 in
  let stage = Ir.reg0 c "lb_stage" 1 in
  let px = Array.init 3 (fun k -> Ir.reg0 c (Printf.sprintf "lb_p%d" k) pw) in
  let partial = Ir.reg0 c "lb_partial" ow in
  let result = Ir.reg0 c "lb_result" ow in
  let result_valid = Ir.reg0 c "lb_rvalid" 1 in

  let in_ready =
    match bug with
    | Some Lb_drop_backpressure ->
      (* Accepts a new transaction while the previous result still waits
         for the host, so stage 2 can clobber it. *)
      Ir.and_list c [ ce; Ir.lognot busy ]
    | _ -> Ir.and_list c [ ce; Ir.lognot busy; Ir.lognot result_valid ]
  in
  let in_fire = Ir.logand in_valid in_ready in

  (* Pixel registers. The indexing/timing bug samples the third pixel from
     the input bus one cycle after the handshake — it captures whatever the
     host drives next, so the output depends on history (FC-visible). *)
  let in_fire_d = Ir.reg0 c "lb_fire_d" 1 in
  Ir.connect c in_fire_d in_fire;
  Array.iteri
    (fun k r ->
      let capture =
        match bug with
        | Some Lb_window_index when k = 2 -> in_fire_d
        | _ -> in_fire
      in
      Ir.connect c r (Ir.mux capture (p k) r))
    px;

  let ext s = Ir.zero_extend s ow in
  (* Stage 1: partial = c0*p0 + c1*p1 (coefficients per bug). *)
  let c0, c1 =
    match bug with
    | Some Lb_coeff_swap -> ((fun x -> Ir.sll (ext x) 1), ext)
    | _ -> (ext, fun x -> Ir.sll (ext x) 1)
  in
  let stage1_fire = Ir.and_list c [ ce; busy; Ir.eq_const stage 0 ] in
  Ir.connect c partial
    (Ir.mux stage1_fire (Ir.add (c0 px.(0)) (c1 px.(1))) partial);

  (* Stage 2: result = partial + p2. *)
  let stage2_fire = Ir.and_list c [ ce; busy; Ir.eq_const stage 1 ] in
  let sum = Ir.add partial (ext px.(2)) in
  let result_capture =
    match bug with
    | Some Lb_drop_backpressure ->
      (* Reloads the result register whether or not the previous output
         was taken. *)
      stage2_fire
    | _ -> Ir.logand stage2_fire (Ir.lognot result_valid)
  in
  Ir.connect c result (Ir.mux result_capture sum result);

  Ir.connect c stage
    (Ir.mux in_fire (Ir.gnd c)
       (Ir.mux stage1_fire (Ir.vdd c) stage));
  Ir.connect c busy
    (Ir.mux in_fire (Ir.vdd c) (Ir.mux stage2_fire (Ir.gnd c) busy));

  let out_valid_normal = Ir.logand ce result_valid in
  let out_valid =
    match bug with
    | Some Lb_valid_early ->
      (* Valid is raised with stage 2 still in flight: the host can grab
         the stale previous result. *)
      Ir.logor out_valid_normal (Ir.logand ce stage2_fire)
    | _ -> out_valid_normal
  in
  let out_fire = Ir.logand out_valid out_ready in
  Ir.connect c result_valid
    (Ir.mux stage2_fire (Ir.vdd c) (Ir.mux out_fire (Ir.gnd c) result_valid));

  (in_ready, out_valid, result)

(* ---- Accumulator (interfering; excluded from A-QED) --------------------- *)

let build_accum c ~in_valid ~in_data ~out_ready ~ce =
  let w = data_width Accumulator in
  let acc = Ir.reg0 c "acc" w in
  let have = Ir.reg0 c "acc_have" 1 in
  let in_ready = Ir.logand ce (Ir.lognot have) in
  let in_fire = Ir.logand in_valid in_ready in
  let sum = Ir.add acc in_data in
  Ir.connect c acc (Ir.mux in_fire sum acc);
  let out_valid = Ir.logand ce have in
  let out_fire = Ir.logand out_valid out_ready in
  Ir.connect c have
    (Ir.mux in_fire (Ir.vdd c) (Ir.mux out_fire (Ir.gnd c) have));
  (in_ready, out_valid, acc)

(* ---- top-level ----------------------------------------------------------- *)

let build ?bug ?(assume_enabled = false) config () =
  (match bug with
   | Some b when bug_config b <> config ->
     invalid_arg
       (Printf.sprintf "Memctrl.build: bug %s belongs to configuration %s"
          (bug_name b)
          (config_name (bug_config b)))
   | Some _ | None -> ());
  let name =
    Printf.sprintf "memctrl_%s%s" (config_name config)
      (match bug with None -> "" | Some b -> "_" ^ bug_name b)
  in
  let c = Ir.create name in
  let in_valid, _, in_data, out_ready =
    Aqed.Iface.standard_inputs c ~data_width:(data_width config) ()
  in
  let ce = Ir.input c "clock_enable" 1 in
  if assume_enabled then Ir.assume c ce;
  let in_ready, out_valid, out_data =
    match config with
    | Fifo_mode -> build_fifo ?bug c ~in_valid ~in_data ~out_ready ~ce
    | Double_buffer -> build_double ?bug c ~in_valid ~in_data ~out_ready ~ce
    | Line_buffer -> build_line ?bug c ~in_valid ~in_data ~out_ready ~ce
    | Accumulator -> build_accum c ~in_valid ~in_data ~out_ready ~ce
  in
  Ir.output c "in_ready" in_ready;
  Ir.output c "out_valid" out_valid;
  Aqed.Iface.make c ~in_valid ~in_data ~in_ready ~out_valid ~out_data
    ~out_ready ()

let stencil d =
  let pw = pixel_width in
  let mask = (1 lsl pw) - 1 in
  let p0 = d land mask and p1 = (d lsr pw) land mask and p2 = (d lsr (2 * pw)) land mask in
  (p0 + (2 * p1) + p2) land ((1 lsl out_width Line_buffer) - 1)

let golden config ins =
  match config with
  | Fifo_mode | Double_buffer -> ins
  | Line_buffer -> List.map stencil ins
  | Accumulator ->
    let _, acc =
      List.fold_left (fun (sum, out) x ->
          let sum = (sum + x) land ((1 lsl data_width Accumulator) - 1) in
          (sum, sum :: out))
        (0, []) ins
    in
    List.rev acc

let spec_rtl config ad =
  match config with
  | Fifo_mode | Double_buffer | Accumulator -> ad
  | Line_buffer ->
    let pw = pixel_width in
    let ow = out_width Line_buffer in
    let p k = Ir.select ad ~hi:(((k + 1) * pw) - 1) ~lo:(k * pw) in
    let ext s = Ir.zero_extend s ow in
    Ir.add (Ir.add (ext (p 0)) (Ir.sll (ext (p 1)) 1)) (ext (p 2))
