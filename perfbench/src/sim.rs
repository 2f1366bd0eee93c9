//! The simulation workload `paper_event`: three presets' cells on the
//! paper platform, repeated in whole rounds for the run's time budget.
//!
//! The benchmark drives the cell lifecycle itself (`System::new`, the
//! warm-up `run`, `reset_stats`, the measured `run`, `report`), so each
//! public call is a span it can time from outside; the traced run adds
//! `run_experiment_with_config_profiled` for the engine's own phases.

use crate::check::{self, CellFacts};
use crate::{derive_seed, fastest, median, Outcome};
use bump_sim::{
    config_for, run_experiment_with_config, run_experiment_with_config_profiled, Engine, Phase,
    Preset, RunOptions, SimReport, System, PHASE_NAMES,
};
use bump_workloads::Workload;
use std::time::{Duration, Instant};

/// The paper platform: 16 cores, 4 MB LLC, the default DDR3-1600
/// scenario, Web Search, on the default (event) engine. Windows count
/// instructions summed over cores.
const WORKLOAD: Workload = Workload::WebSearch;
const WARMUP: u64 = 60_000;
const MEASURE: u64 = 60_000;
const MAX_CYCLES: u64 = 40_000_000;

/// The presets every round runs, with their metric keys and the cost
/// tier the end-to-end latency metric files them under.
pub const CELLS: [(Preset, &str, &str); 3] = [
    (Preset::BaseOpen, "base_open", "light"),
    (Preset::Bump, "bump", "medium"),
    (Preset::FullRegion, "full_region", "heavy"),
];

/// Each window runs as this many equal slices of its instruction
/// count, each timed on its own. A cell is deterministic, so a slice
/// does the same work in every repetition, and the cell's fastest time
/// is taken slice by slice: the host's quiet spells are shorter than a
/// cell (see README.md, "Host noise").
const SLICES: u64 = 16;

/// Host seconds of each public call of one cell, plus what it returned.
struct Lifecycle {
    new: f64,
    /// Per slice of the warm-up window.
    warmup: Vec<f64>,
    /// Per slice of the measured window (the first includes
    /// `reset_stats`).
    measure: Vec<f64>,
    report: f64,
    warm: (u64, u64),
    meas: (u64, u64),
    sim: SimReport,
}

/// `System::run` for `n` instructions in [`SLICES`] timed slices. The
/// last slice stops where one call would have (the first cycle at which
/// `n` instructions have retired), which the reference check confirms.
fn sliced_run(sys: &mut System, n: u64, max_cycles: u64, times: &mut Vec<f64>) -> (u64, u64) {
    let (mut instr, mut cycles) = (0, 0);
    for k in 1..=SLICES {
        let t = Instant::now();
        let (i, c) = sys.run(
            (n * k / SLICES).saturating_sub(instr),
            max_cycles.saturating_sub(cycles),
        );
        times.push(t.elapsed().as_secs_f64());
        instr += i;
        cycles += c;
    }
    (instr, cycles)
}

fn lifecycle(preset: Preset, opts: RunOptions) -> Lifecycle {
    let cfg = config_for(preset, WORKLOAD, opts);
    let t0 = Instant::now();
    let mut sys = System::new(cfg);
    let new = t0.elapsed().as_secs_f64();
    let (mut warmup, mut measure) = (Vec::new(), Vec::new());
    let warm = sliced_run(
        &mut sys,
        opts.warmup_instructions,
        opts.max_cycles,
        &mut warmup,
    );
    let t1 = Instant::now();
    sys.reset_stats();
    let reset = t1.elapsed().as_secs_f64();
    let meas = sliced_run(
        &mut sys,
        opts.measure_instructions,
        opts.max_cycles,
        &mut measure,
    );
    measure[0] += reset;
    let t2 = Instant::now();
    let sim = std::hint::black_box(sys.report());
    let report = t2.elapsed().as_secs_f64();
    Lifecycle {
        new,
        warmup,
        measure,
        report,
        warm,
        meas,
        sim,
    }
}

/// The fastest time of a sliced window: each slice's fastest
/// repetition, summed.
fn fastest_sliced(reps: &[Vec<f64>]) -> f64 {
    let slices = reps.first().map_or(0, Vec::len);
    (0..slices)
        .map(|k| reps.iter().map(|r| r[k]).fold(f64::INFINITY, f64::min))
        .sum()
}

fn facts(preset: Preset, opts: RunOptions, l: &Lifecycle) -> CellFacts {
    CellFacts {
        preset: preset.name(),
        row_hit: l.sim.row_hit_ratio().value(),
        energy_per_access_nj: l.sim.energy_per_access_nj(),
        ipc: l.sim.ipc(),
        requested: (opts.warmup_instructions, opts.measure_instructions),
        retired: (l.warm.0, l.meas.0),
        cycles: (l.warm.1, l.meas.1),
        max_cycles: opts.max_cycles,
    }
}

/// The report rendered without its host-time phase profile: what must
/// repeat exactly across repetitions, engines and the traced run.
fn rendering(report: &SimReport) -> String {
    let mut r = report.clone();
    r.phase = None;
    format!("{r:?}")
}

/// Samples of one preset's cells across the run, in seconds.
#[derive(Default)]
struct Samples {
    new: Vec<f64>,
    /// Whole cells, `System::new` to `report`.
    whole: Vec<f64>,
    warmup: Vec<Vec<f64>>,
    measure: Vec<Vec<f64>>,
    report: Vec<f64>,
    /// Profiled cell time and its report (traced runs only).
    profiled: Vec<(f64, SimReport)>,
    /// The first repetition, which every later one must equal.
    first: Option<First>,
}

/// What the first repetition of a cell produced.
struct First {
    rendering: String,
    facts: CellFacts,
    report: SimReport,
    /// Instructions retired over both windows, summed over cores.
    retired: u64,
}

impl Samples {
    /// The cell's fastest time without `System::new`: warm-up and
    /// measured windows slice by slice, plus the fastest `report`.
    fn fastest_cell(&self) -> f64 {
        fastest_sliced(&self.warmup) + fastest_sliced(&self.measure) + fastest(&self.report)
    }
}

/// Runs `paper_event` for `budget` in whole rounds and records its
/// metrics into `out`.
pub fn run(seed: u64, budget: Duration, trace: bool, out: &mut Outcome) {
    let opts = RunOptions {
        warmup_instructions: WARMUP,
        measure_instructions: MEASURE,
        max_cycles: MAX_CYCLES,
        seed: derive_seed(seed, 0),
        ..RunOptions::paper()
    };
    let mut samples: Vec<Samples> = CELLS.iter().map(|_| Samples::default()).collect();
    let start = Instant::now();
    while start.elapsed() < budget {
        for (i, &(preset, _, _)) in CELLS.iter().enumerate() {
            let s = &mut samples[i];
            out.attempted += 1;
            let l = lifecycle(preset, opts);
            let cell: f64 = l.warmup.iter().chain(&l.measure).sum::<f64>() + l.report;
            s.new.push(l.new);
            s.whole.push(l.new + cell);
            s.report.push(l.report);
            let seen = rendering(&l.sim);
            match &s.first {
                None => {
                    s.first = Some(First {
                        rendering: seen,
                        facts: facts(preset, opts, &l),
                        retired: l.warm.0 + l.meas.0,
                        report: l.sim,
                    })
                }
                Some(first) => out.check(check::same_bytes(
                    &format!("{} repetition", preset.name()),
                    &first.rendering,
                    &seen,
                )),
            }
            s.warmup.push(l.warmup);
            s.measure.push(l.measure);
            if trace {
                let cfg = config_for(preset, WORKLOAD, opts);
                let t0 = Instant::now();
                let profiled = run_experiment_with_config_profiled(cfg, opts, true);
                let took = t0.elapsed().as_secs_f64();
                if let Some(first) = &s.first {
                    out.check(check::same_bytes(
                        &format!("{} traced run", preset.name()),
                        &first.rendering,
                        &rendering(&profiled),
                    ));
                }
                if profiled.phase.is_none() {
                    out.errors.push(format!(
                        "{}: profiled run has no phase profile",
                        preset.name()
                    ));
                }
                s.profiled.push((took, profiled));
            }
        }
    }
    // Every round runs all three cells, so each has a first repetition.
    let firsts: Vec<&First> = samples.iter().filter_map(|s| s.first.as_ref()).collect();
    let [base, bump, full] = [0, 1, 2].map(|i| firsts[i].facts.clone());
    out.check(check::paper_shape(&[base, bump, full]));
    // The cycle oracle is the spec: every cell's report must equal its
    // report byte for byte. The oracle runs each window in one call, so
    // this also shows that the benchmark's slicing changes nothing.
    for (i, &(preset, _, _)) in CELLS.iter().enumerate() {
        let oracle = RunOptions {
            engine: Engine::Cycle,
            ..opts
        };
        let reference = run_experiment_with_config(config_for(preset, WORKLOAD, oracle), oracle);
        out.check(check::same_bytes(
            &format!("{} sliced event engine vs cycle oracle", preset.name()),
            &rendering(&reference),
            &firsts[i].rendering,
        ));
    }
    if trace {
        per_layer(&samples, out);
    } else {
        end_to_end(&samples, out);
    }
}

fn end_to_end(samples: &[Samples], out: &mut Outcome) {
    let new: Vec<f64> = samples.iter().flat_map(|s| s.new.iter().copied()).collect();
    out.metric("setup_s", median(&new), "s");
    for (s, &(_, key, tier)) in samples.iter().zip(CELLS.iter()) {
        let retired = s.first.as_ref().map_or(0, |f| f.retired) as f64;
        out.metric(
            format!("sim_minstr_per_s.{key}"),
            retired / s.fastest_cell() / 1e6,
            "Minstr/s",
        );
        out.metric(format!("{tier}_op_ms"), s.fastest_cell() * 1e3, "ms");
    }
}

/// The per-layer metric names (and units) this module reports.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = ["new", "warmup", "measure", "report"]
        .iter()
        .map(|s| (format!("sim.{s}_ms"), "ms"))
        .collect();
    for phase in PHASE_NAMES {
        names.push((format!("engine.{phase}.self_ms"), "ms"));
        names.push((format!("engine.{phase}.calls"), "count"));
    }
    names.push(("engine.sim_cycles_per_step".into(), "cycles"));
    names.push(("engine.host_ns_per_sim_cycle".into(), "ns"));
    names.push(("engine.profile_overhead".into(), "ratio"));
    for m in MODEL {
        names.push((format!("model.{m}"), "count"));
    }
    names
}

const MODEL: [&str; 9] = [
    "sim_cycles",
    "dram_reads",
    "dram_writes",
    "dram_row_hits",
    "llc_misses",
    "noc_messages",
    "bulk_reads",
    "spec_dropped",
    "load_stall_cycles",
];

fn model_counts(r: &SimReport) -> [u64; 9] {
    let llc = &r.llc.demand_hits;
    [
        r.cycles,
        r.dram.reads_completed,
        r.dram.writes_completed,
        r.dram.row_hit_ratio().hits,
        llc.total - llc.hits,
        r.noc.messages,
        r.traffic.bulk_reads,
        r.spec_dropped,
        r.load_stall_cycles,
    ]
}

fn per_layer(samples: &[Samples], out: &mut Outcome) {
    let new: Vec<f64> = samples.iter().flat_map(|s| s.new.iter().copied()).collect();
    out.metric("sim.new_ms", median(&new) * 1e3, "ms");
    let sum = |f: &dyn Fn(&Samples) -> f64| samples.iter().map(f).sum::<f64>();
    out.metric(
        "sim.warmup_ms",
        sum(&|s| fastest_sliced(&s.warmup)) * 1e3,
        "ms",
    );
    out.metric(
        "sim.measure_ms",
        sum(&|s| fastest_sliced(&s.measure)) * 1e3,
        "ms",
    );
    out.metric("sim.report_ms", sum(&|s| fastest(&s.report)) * 1e3, "ms");
    // Phase self-times come from each preset's fastest profiled run;
    // the lap counts are exact and the same in every one.
    let profiles: Vec<&SimReport> = samples
        .iter()
        .filter_map(|s| {
            s.profiled
                .iter()
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .map(|(_, r)| r)
        })
        .collect();
    let phase = |r: &SimReport, ph: usize| r.phase.as_ref().map(|p| p.phases[ph]);
    for (ph, name) in PHASE_NAMES.iter().enumerate() {
        let nanos: u64 = profiles
            .iter()
            .filter_map(|r| phase(r, ph))
            .map(|p| p.nanos)
            .sum();
        let calls: u64 = profiles
            .iter()
            .filter_map(|r| phase(r, ph))
            .map(|p| p.calls)
            .sum();
        out.metric(format!("engine.{name}.self_ms"), nanos as f64 / 1e6, "ms");
        out.metric(format!("engine.{name}.calls"), calls as f64, "count");
    }
    let cycles: u64 = profiles.iter().map(|r| r.cycles).sum();
    let steps: u64 = profiles
        .iter()
        .filter_map(|r| phase(r, Phase::CoreTick as usize))
        .map(|p| p.calls)
        .sum();
    out.metric(
        "engine.sim_cycles_per_step",
        cycles as f64 / steps.max(1) as f64,
        "cycles",
    );
    let measure_ns = sum(&|s| fastest_sliced(&s.measure)) * 1e9;
    out.metric(
        "engine.host_ns_per_sim_cycle",
        measure_ns / cycles.max(1) as f64,
        "ns",
    );
    let traced = sum(&|s| fastest(&s.profiled.iter().map(|p| p.0).collect::<Vec<_>>()));
    let untraced = sum(&|s| fastest(&s.whole));
    out.metric("engine.profile_overhead", traced / untraced, "ratio");
    let mut model = [0u64; 9];
    for s in samples {
        if let Some(first) = &s.first {
            for (m, c) in model.iter_mut().zip(model_counts(&first.report)) {
                *m += c;
            }
        }
    }
    for (name, count) in MODEL.iter().zip(model) {
        out.metric(format!("model.{name}"), count as f64, "count");
    }
}
