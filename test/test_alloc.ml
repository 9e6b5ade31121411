(* Allocation budgets, measured with [Gc.minor_words].

   The in-place [Bits] kernels the compiled simulators run every cycle
   must allocate nothing at all, and a steady-state frame through
   [Experiment.run_video_system] must stay within a small per-cycle
   budget, and a scalar [Monitor.sample] must allocate nothing.  Both are properties of how the code is written (unboxed
   limbs, no closures or boxed int64 on the hot path), so they are
   checked directly rather than inferred from timings. *)

open Hwpat_rtl
open Hwpat_video
open Hwpat_core

let calls = 1000

(* Minor words allocated by [calls] calls of [f], less those of an empty
   loop. *)
let words f =
  let measure g =
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      g ()
    done;
    Gc.minor_words () -. w0
  in
  measure f -. measure (fun () -> ())

let zero_alloc name f =
  Alcotest.(check (float 0.0)) (name ^ ": minor words in 1000 calls") 0.0 (words f)

let kernel_case w =
  Alcotest.test_case (Printf.sprintf "Bits kernels w=%d" w) `Quick (fun () ->
      Random.init w;
      let a = Bits.random ~width:w and b = Bits.random ~width:w in
      let dst = Bits.zero w and bit = Bits.zero 1 in
      let cases =
        [
          ("add_into", fun () -> Bits.add_into ~dst a b);
          ("sub_into", fun () -> Bits.sub_into ~dst a b);
          ("mul_into", fun () -> Bits.mul_into ~dst a b);
          ("mul_into aliased", fun () -> Bits.mul_into ~dst dst b);
          ("logand_into", fun () -> Bits.logand_into ~dst a b);
          ("logor_into", fun () -> Bits.logor_into ~dst a b);
          ("logxor_into", fun () -> Bits.logxor_into ~dst a b);
          ("lognot_into", fun () -> Bits.lognot_into ~dst a);
          ("eq_into", fun () -> Bits.eq_into ~dst:bit a b);
          ("lt_into", fun () -> Bits.lt_into ~dst:bit a b);
          ( "select_into",
            let sel = Bits.zero ((w + 1) / 2) in
            fun () -> Bits.select_into ~dst:sel a ~high:(w - 1) ~low:(w / 2) );
          ( "concat_msb_into",
            let parts = [| a; b |] and cat = Bits.zero (2 * w) in
            fun () -> Bits.concat_msb_into ~dst:cat parts );
          ( "blit_changed",
            fun () ->
              ignore (Bits.blit_changed ~src:a ~dst);
              ignore (Bits.blit_changed ~src:b ~dst) );
          ("equal", fun () -> ignore (Bits.equal a b));
          ("compare", fun () -> ignore (Bits.compare a b));
          ("to_bool", fun () -> ignore (Bits.to_bool a));
          ("to_index", fun () -> ignore (Bits.to_index a ~bound:1000));
        ]
      in
      List.iter (fun (name, f) -> zero_alloc name f) cases)

(* The three Table 3 designs on a seeded frame.  The first frame warms
   the instance up; the second is measured. *)
let per_cycle_budget = 64.0

let video_case design =
  Alcotest.test_case (Printf.sprintf "run_video_system %s" design) `Quick
    (fun () ->
      let width = 32 and height = 24 in
      let circuit, flavor =
        Designs.build ~design ~style:"pattern" ~frame_w:width ~frame_h:height
      in
      let sim = Cyclesim.create circuit in
      let input = Hwpat_video.Pattern.random ~seed:11 ~width ~height ~depth:8 () in
      let out_width, out_height = Designs.output_shape flavor ~width ~height in
      let run () =
        Experiment.run_video_system ~sim circuit ~input ~out_width ~out_height
      in
      ignore (run ());
      let w0 = Gc.minor_words () in
      let r = run () in
      let per_cycle = (Gc.minor_words () -. w0) /. float_of_int r.Experiment.cycles in
      Alcotest.(check bool) "output matches the reference" true
        (Frame.equal r.Experiment.output (Designs.reference flavor input));
      if per_cycle > per_cycle_budget then
        Alcotest.failf "%s: %.1f minor words per cycle, budget %.0f" design
          per_cycle per_cycle_budget)

(* The scalar monitor every fault campaign's fault-free baseline (and
   every scalar campaign) samples once per cycle: on the protected
   design, mid-frame and with the history ring wrapped many times over,
   a sample allocates nothing. *)
let monitor_case =
  Alcotest.test_case "Monitor.sample saa2vga_sram_protected" `Quick (fun () ->
      let sim = Cyclesim.create (Saa2vga.build_protected ()) in
      let monitor = Monitor.create sim in
      Alcotest.(check bool) "monitors attached" true (Monitor.add_auto monitor > 0);
      let frame = Hwpat_video.Pattern.gradient ~width:16 ~height:16 ~depth:8 in
      let source = Video_source.create sim frame in
      let sink = Vga_sink.create sim () in
      for _ = 1 to 300 do
        Video_source.drive source;
        Vga_sink.drive sink;
        Cyclesim.cycle sim;
        Monitor.sample monitor;
        Video_source.observe source;
        Vga_sink.observe sink
      done;
      Alcotest.(check bool) "pixels flowing" true (Vga_sink.count sink > 0);
      zero_alloc "Monitor.sample" (fun () -> Monitor.sample monitor);
      Alcotest.(check bool) "no violations" true (Monitor.ok monitor))

let () =
  Alcotest.run "alloc"
    [
      ("alloc", List.map kernel_case [ 1; 64; 65; 130 ]
                @ List.map video_case [ "saa2vga-fifo"; "saa2vga-sram"; "blur" ]
                @ [ monitor_case ]);
    ]
