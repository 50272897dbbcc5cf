(** Layer microbenchmarks: host ns per operation, Bechamel OLS with r².

    Every benchmark builds its machine, mapping, scheme or allocator
    once, outside the timed closure; the closure performs only the
    operation under test (plus the index arithmetic that walks its
    addresses). Costs are for the engine selected by [SGXBOUNDS_ENGINE]
    when this module runs. *)

module Config = Sb_machine.Config
module Memsys = Sb_sgx.Memsys
module Epc = Sb_sgx.Epc
module Vmem = Sb_vmem.Vmem
module Hierarchy = Sb_cache.Hierarchy
module Freelist = Sb_alloc.Freelist
module Simlibc = Sb_libc.Simlibc
module Harness = Sb_harness.Harness
module Mt = Sb_mt.Mt

type estimate = { ns : float; r2 : float }

(* Mt benchmark shape: two simulated threads, [yields] switches each. *)
let yields = 64

let line = 64

(** [(name, per-run divisor, closure)] for every benchmark, with all
    state built up front. The benchmark names are the metric names. *)
let cases () =
  let cfg = Config.default () in
  let stride_walk ~len =
    let i = ref 0 in
    fun () ->
      i := (!i + line) mod len;
      !i
  in
  (* Vmem: translation memo hit inside one page, then the data read *)
  let vm = Vmem.create cfg in
  let vbase = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  let vnext = stride_walk ~len:4096 in
  (* Hierarchy: one hot line, and a line walk over 32x the LLC *)
  let hier = Hierarchy.create cfg in
  let big = 32 * cfg.Config.llc.Config.size in
  let hnext = stride_walk ~len:big in
  (* EPC: one resident page, and a page walk over twice the capacity *)
  let cap = cfg.Config.epc_bytes / cfg.Config.page_size in
  let num_pages = (Vmem.addr_mask + 1) lsr 12 in
  let hot = Epc.create ~num_pages ~capacity_pages:cap () in
  let cold = Epc.create ~num_pages ~capacity_pages:cap () in
  let pnext = stride_walk ~len:(2 * cap * line) in
  (* Memsys: the same line over and over (the streak path), and a line
     walk over 8x the LLC that still fits the EPC (LLC miss, page
     resident) *)
  let ms = Memsys.create cfg in
  let mlen = 8 * cfg.Config.llc.Config.size in
  assert (mlen < cfg.Config.epc_bytes);
  let mbase = Vmem.map (Memsys.vmem ms) ~len:mlen ~perm:Vmem.Read_write () in
  let mnext = stride_walk ~len:mlen in
  for a = 0 to (mlen / line) - 1 do
    ignore (Memsys.load ms ~addr:(mbase + (a * line)) ~width:8)
  done;
  (* Mt: a machine of its own, two threads that alternate *)
  let mt_ms = Memsys.create cfg in
  let mt_body () =
    for _ = 1 to yields do
      Memsys.charge_alu mt_ms 1;
      Mt.yield ()
    done
  in
  (* Simlibc and Freelist on an SGXBounds machine *)
  let lms = Memsys.create cfg in
  let s = Harness.maker "sgxbounds" lms in
  let src = s.Sb_protection.Scheme.malloc 4096 and dst = s.Sb_protection.Scheme.malloc 4096 in
  let fl = Freelist.create (Memsys.create cfg) in
  [
    ( "vmem.load_ns", 1.,
      fun () -> ignore (Vmem.load vm ~addr:(vbase + vnext ()) ~width:8) );
    ("hierarchy.l1_hit_ns", 1., fun () -> ignore (Hierarchy.access hier ~addr:4096));
    ("hierarchy.llc_miss_ns", 1., fun () -> ignore (Hierarchy.access hier ~addr:(hnext ())));
    ("epc.touch_resident_ns", 1., fun () -> ignore (Epc.touch hot ~page:0));
    ("epc.touch_fault_ns", 1., fun () -> ignore (Epc.touch cold ~page:(pnext () / line)));
    ("memsys.load_same_line_ns", 1., fun () -> ignore (Memsys.load ms ~addr:mbase ~width:8));
    ( "memsys.load_miss_ns", 1.,
      fun () -> ignore (Memsys.load ms ~addr:(mbase + mnext ()) ~width:8) );
    ("mt.yield_ns", float_of_int (2 * yields), fun () -> Mt.run mt_ms [| mt_body; mt_body |]);
    ("simlibc.memcpy_4k_ns", 1., fun () -> Simlibc.memcpy s ~dst ~src ~len:4096);
    ("freelist.alloc_free_ns", 1., fun () -> Freelist.free fl (Freelist.alloc fl 64));
  ]

(** Run every microbenchmark for about [quota] seconds each. *)
let run ?(quota = 0.25) () =
  let open Bechamel in
  let cases = cases () in
  let tests =
    List.map (fun (name, _, f) -> Test.make ~name (Staged.stage f)) cases
  in
  (* no full compaction before every sample: with the simulator's large
     heap it would eat the quota and leave only tiny, noisy samples *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:false ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  List.map2
    (fun test (name, per_run, _) ->
       let raw = Benchmark.all cfg [ instance ] test in
       let res = Analyze.all ols instance raw in
       let est =
         Hashtbl.fold
           (fun _ o acc ->
              match (Analyze.OLS.estimates o, Analyze.OLS.r_square o) with
              | Some [ ns ], Some r2 -> Some { ns = ns /. per_run; r2 }
              | _ -> acc)
           res None
       in
       (* a fit that did not converge is NaN, never a number *)
       (name, Option.value est ~default:{ ns = Float.nan; r2 = Float.nan }))
    tests cases
