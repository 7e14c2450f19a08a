(* Known answers for every job spec a benchmark workload can generate, at
   any seed: the verdict and counterexample length the verifier must
   report. A request whose verdict, depth or certificate disagrees with
   this table counts as failed.

   Sources, cross-checked:
   - the registry rows are the Table-1 flow (FC@12, then RB@12, then
     SAC@10) over [Accel.Memctrl.all_bugs]; a bug's detecting check is
     its first row with a [Bug] answer: FC for 11 bugs, RB for 4, SAC
     for lb_coeff_swap, as in EXPERIMENTS.md E2. ([Memctrl.bug_info]
     names RB for db_wptr_noreset, which RB also catches, but FC runs
     first and finds it in 7 cycles.) The lengths span 3..11 with mean
     7.06, matching E1's "3, 7, 11";
   - the dataflow (RB, 16 cycles) and optflow (RB, 10 cycles) rows match
     EXPERIMENTS.md E3;
   - the clean rows are bounded results. On certified requests (every
     request that goes through a store) the verifier's own certificate is
     the independent check: a counterexample must replay on the
     simulator at its last cycle, a clean bound must be RUP-certified to
     the requested depth. *)

type answer =
  | Bug of int  (** counterexample length in cycles *)
  | Clean  (** no violation up to the requested depth *)

(* (design, bug, check, depth, answer) *)
let table =
  [
    (* registry: FC@12 for every memctrl bug *)
    ("memctrl-fifo", Some "fifo_oversize_ready", "fc", 12, Bug 8);
    ("memctrl-fifo", Some "fifo_count_narrow", "fc", 12, Bug 6);
    ("memctrl-fifo", Some "fifo_ready_stuck", "fc", 12, Clean);
    ("memctrl-fifo", Some "fifo_out_early", "fc", 12, Bug 4);
    ("memctrl-fifo", Some "fifo_clock_gate", "fc", 12, Bug 5);
    ("memctrl-fifo", Some "fifo_ptr_wrap", "fc", 12, Bug 5);
    ("memctrl-fifo", Some "ctrl_turn_skip", "fc", 12, Clean);
    ("memctrl-double_buffer", Some "db_swap_early", "fc", 12, Bug 3);
    ("memctrl-double_buffer", Some "db_wptr_noreset", "fc", 12, Bug 7);
    ("memctrl-double_buffer", Some "db_ready_during_swap", "fc", 12, Bug 8);
    ("memctrl-double_buffer", Some "db_read_write_bank", "fc", 12, Clean);
    ("memctrl-double_buffer", Some "db_full_flag_race", "fc", 12, Bug 7);
    ("memctrl-line_buffer", Some "lb_window_index", "fc", 12, Bug 8);
    ("memctrl-line_buffer", Some "lb_coeff_swap", "fc", 12, Clean);
    ("memctrl-line_buffer", Some "lb_valid_early", "fc", 12, Bug 11);
    ("memctrl-line_buffer", Some "lb_drop_backpressure", "fc", 12, Bug 10);
    (* registry: RB@12 where FC is clean, SAC@10 where RB is clean too *)
    ("memctrl-fifo", Some "fifo_ready_stuck", "rb", 12, Bug 10);
    ("memctrl-fifo", Some "ctrl_turn_skip", "rb", 12, Bug 8);
    ("memctrl-double_buffer", Some "db_read_write_bank", "rb", 12, Bug 9);
    ("memctrl-line_buffer", Some "lb_coeff_swap", "rb", 12, Clean);
    ("memctrl-line_buffer", Some "lb_coeff_swap", "sac", 10, Bug 4);
    (* reverify: the clean designs at the cold/warm and the deeper bound *)
    ("memctrl-fifo", None, "fc", 6, Clean);
    ("memctrl-double_buffer", None, "fc", 6, Clean);
    ("memctrl-line_buffer", None, "fc", 6, Clean);
    ("fig2", None, "fc", 6, Clean);
    ("aes", None, "fc", 6, Clean);
    ("gsm", None, "fc", 6, Clean);
    ("simd", None, "fc", 6, Clean);
    ("dualpath", None, "fc", 6, Clean);
    ("memctrl-fifo", None, "fc", 8, Clean);
    ("memctrl-double_buffer", None, "fc", 8, Clean);
    ("memctrl-line_buffer", None, "fc", 8, Clean);
    ("fig2", None, "fc", 8, Clean);
    ("aes", None, "fc", 8, Clean);
    ("gsm", None, "fc", 8, Clean);
    ("simd", None, "fc", 8, Clean);
    ("dualpath", None, "fc", 8, Clean);
    (* reverify: the dirty leg's candidates, registry bugs FC finds
       within 8 frames *)
    ("memctrl-fifo", Some "fifo_oversize_ready", "fc", 8, Bug 8);
    ("memctrl-fifo", Some "fifo_count_narrow", "fc", 8, Bug 6);
    ("memctrl-fifo", Some "fifo_out_early", "fc", 8, Bug 4);
    ("memctrl-fifo", Some "fifo_clock_gate", "fc", 8, Bug 5);
    ("memctrl-fifo", Some "fifo_ptr_wrap", "fc", 8, Bug 5);
    ("memctrl-double_buffer", Some "db_swap_early", "fc", 8, Bug 3);
    ("memctrl-double_buffer", Some "db_wptr_noreset", "fc", 8, Bug 7);
    ("memctrl-double_buffer", Some "db_ready_during_swap", "fc", 8, Bug 8);
    ("memctrl-double_buffer", Some "db_full_flag_race", "fc", 8, Bug 7);
    ("memctrl-line_buffer", Some "lb_window_index", "fc", 8, Bug 8);
    (* serve / serve-fleet: the job menu entries not listed above *)
    ("memctrl-line_buffer", None, "fc", 10, Clean);
    ("memctrl-double_buffer", None, "sac", 10, Clean);
    ("aes", None, "rb", 12, Clean);
    ("gsm", None, "fc", 10, Clean);
    ("dataflow", Some "bug", "rb", 16, Bug 16);
    ("optflow", Some "bug", "rb", 12, Bug 10);
    ("simd", None, "fc", 12, Clean);
    ("dualpath", Some "bug", "fc", 8, Bug 6);
  ]

let find (s : Serve.job_spec) =
  List.find_map
    (fun (d, b, c, k, a) ->
      if
        d = s.Serve.sj_design && b = s.Serve.sj_bug
        && c = String.lowercase_ascii s.Serve.sj_check
        && k = s.Serve.sj_depth
      then Some a
      else None)
    table
