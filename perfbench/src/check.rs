//! Output checks. Each compares against a computation made apart from
//! the path under test (the other engine, an untraced run, the
//! in-process `bumpc --local` path) or against a property the method
//! must have (the paper's shape, exact dispatch accounting).
//! [`self_test`] feeds every checker a deliberately wrong output.

/// The facts of one cell the paper-shape check reads.
#[derive(Clone, Debug)]
pub struct CellFacts {
    /// Preset name, for messages.
    pub preset: &'static str,
    /// DRAM row-buffer hit ratio of the measurement window.
    pub row_hit: f64,
    /// Memory energy per useful access, nJ.
    pub energy_per_access_nj: f64,
    /// Aggregate IPC.
    pub ipc: f64,
    /// Instructions asked of the (warm-up, measure) windows.
    pub requested: (u64, u64),
    /// Instructions the windows retired.
    pub retired: (u64, u64),
    /// Cycles the windows took.
    pub cycles: (u64, u64),
    /// The windows' cycle cap.
    pub max_cycles: u64,
}

/// Two renderings of what must be the same output (a report, a job's
/// CSV) are byte-identical.
pub fn same_bytes(what: &str, want: &str, got: &str) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    let at = want
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(want.len().min(got.len()));
    let from = at.saturating_sub(40);
    let show = |s: &str| {
        s.get(from..(at + 40).min(s.len()))
            .unwrap_or("")
            .to_string()
    };
    Err(format!(
        "{what}: outputs differ at byte {at}: want …{}… got …{}…",
        show(want),
        show(got)
    ))
}

/// The paper's shape on `[Base-open, BuMP, Full-region]`: row-hit ratio
/// rises in that order, BuMP's memory energy per access is below
/// Base-open's, Full-region's IPC is below Base-open's, and every cell
/// retired what it was asked before its cycle cap.
pub fn paper_shape(cells: &[CellFacts; 3]) -> Result<(), String> {
    let [base, bump, full] = cells;
    for c in cells {
        let done = |asked: u64, got: u64, cycles: u64| got >= asked && cycles < c.max_cycles;
        if !done(c.requested.0, c.retired.0, c.cycles.0)
            || !done(c.requested.1, c.retired.1, c.cycles.1)
        {
            return Err(format!(
                "{}: retired {:?} of {:?} instructions in {:?} cycles (cap {})",
                c.preset, c.retired, c.requested, c.cycles, c.max_cycles
            ));
        }
    }
    if !(base.row_hit < bump.row_hit && bump.row_hit < full.row_hit) {
        return Err(format!(
            "row-hit ratio must rise Base-open < BuMP < Full-region, got {:.4} / {:.4} / {:.4}",
            base.row_hit, bump.row_hit, full.row_hit
        ));
    }
    if bump.energy_per_access_nj >= base.energy_per_access_nj {
        return Err(format!(
            "BuMP energy per access {:.4} nJ is not below Base-open's {:.4} nJ",
            bump.energy_per_access_nj, base.energy_per_access_nj
        ));
    }
    if full.ipc >= base.ipc {
        return Err(format!(
            "Full-region IPC {:.4} is not below Base-open's {:.4}",
            full.ipc, base.ipc
        ));
    }
    Ok(())
}

/// A job's cell count is exactly `expected`: the router dispatches 0
/// cells for a cache hit and the whole grid for a fresh job, and the
/// daemon answers a repeat from the journal alone.
pub fn exact_count(what: &str, got: u64, expected: u64) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("{what}: {got} cells, expected {expected}"))
    }
}

/// Runs every checker on a deliberately wrong output and fails unless
/// each one rejects it (and accepts the matching right output).
pub fn self_test() -> Result<(), String> {
    let cell = |preset, row_hit, energy, ipc| CellFacts {
        preset,
        row_hit,
        energy_per_access_nj: energy,
        ipc,
        requested: (1000, 1000),
        retired: (1000, 1001),
        cycles: (5000, 5000),
        max_cycles: 10_000,
    };
    let good = [
        cell("Base-open", 0.5, 20.0, 2.0),
        cell("BuMP", 0.7, 15.0, 2.1),
        cell("Full-region", 0.9, 16.0, 1.5),
    ];
    let mut cases: Vec<(&str, Result<(), String>)> = Vec::new();
    let mut flat_rows = good.clone();
    flat_rows[1].row_hit = 0.95;
    cases.push(("row-hit order", paper_shape(&flat_rows)));
    let mut costly = good.clone();
    costly[1].energy_per_access_nj = 21.0;
    cases.push(("BuMP energy", paper_shape(&costly)));
    let mut fast_full = good.clone();
    fast_full[2].ipc = 2.5;
    cases.push(("Full-region IPC", paper_shape(&fast_full)));
    let mut short = good.clone();
    short[0].retired.1 = 999;
    cases.push(("retired short", paper_shape(&short)));
    let mut capped = good.clone();
    capped[2].cycles.0 = 10_000;
    cases.push(("hit the cycle cap", paper_shape(&capped)));
    cases.push((
        "report drift",
        same_bytes(
            "self-test",
            "SimReport { cycles: 10 }",
            "SimReport { cycles: 11 }",
        ),
    ));
    cases.push((
        "report truncated",
        same_bytes(
            "self-test",
            "SimReport { cycles: 10 }",
            "SimReport { cycles: 10",
        ),
    ));
    cases.push((
        "csv drift",
        same_bytes("self-test", "a,b\n1,2\n", "a,b\n1,3\n"),
    ));
    cases.push(("cache hit dispatched", exact_count("self-test", 1, 0)));
    cases.push(("fresh job short", exact_count("self-test", 41, 42)));
    for (name, result) in cases {
        if result.is_ok() {
            return Err(format!(
                "self-test: the checker accepted a wrong output ({name})"
            ));
        }
    }
    paper_shape(&good).map_err(|e| format!("self-test: a right shape was rejected: {e}"))?;
    same_bytes("self-test", "x", "x")?;
    exact_count("self-test", 42, 42)
}
