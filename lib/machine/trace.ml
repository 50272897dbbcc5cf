(** Host-side fused-access counter, read by the benchmark harness as
    [trace.fused_ratio]. [fused] counts accesses executed through a
    fused superblock path. Neither engine has such a path, so
    {!Sb_sgx.Memsys.trace_stats} always reports [0]. *)
type stats = { fused : int }
