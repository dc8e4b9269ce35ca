//! The execute workload's per-kernel cycle rows are the suite runner's
//! cycles: same kernel, configuration, and size.

use perfbench::execute::{configs, cycle_rows, entries};
use suite::ispc::IspcSizes;
use suite::runner::run_kernel;

#[test]
fn cycle_rows_match_run_kernel() {
    let rows = cycle_rows(256, IspcSizes::tiny()).expect("rows");
    let entries = entries(256, IspcSizes::tiny());
    assert_eq!(
        rows.len(),
        79 * 4,
        "72 fig5 + 7 fig4 kernels, four configs each"
    );
    let mut i = 0;
    for e in &entries {
        for &cfg in configs(e.figure) {
            let row = &rows[i];
            i += 1;
            assert_eq!(
                (row.kernel.as_str(), row.config),
                (e.kernel.name.as_str(), cfg.label())
            );
            let want = run_kernel(&e.kernel, cfg).expect("run_kernel").cycles;
            assert_eq!(row.cycles, want, "{} [{}]", row.kernel, row.config);
        }
    }
    // The rows whose default-target cycles moved with the SVE target are
    // recorded individually.
    for k in [
        "gray_to_bgr",
        "dup2_u8",
        "interleave2_u8",
        "swizzle_rgba_bgra",
    ] {
        assert!(
            rows.iter()
                .any(|r| r.kernel == k && r.config == "parsimony"),
            "missing row for {k}"
        );
    }
}
