//! The timed window, the end-to-end metrics computed from it, and the
//! driver that runs any workload untraced (end-to-end metrics) or traced
//! (per-layer metrics plus an untraced reference for the overhead).

use crate::host;
use crate::stats::{self, P50, P95, P99};
use crate::trace::{Off, Spans, Tracer};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per untraced run outside `--smoke`.
pub const SETUP_REPS: usize = 3;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// Nominal length of the timed window; op counts are this many
    /// thirtieths of the full counts.
    pub seconds: u32,
    /// Op counts ÷ 50, for a quick end-to-end check of the harness.
    pub smoke: bool,
    /// Where span files and the durable workload's files go.
    pub out_dir: PathBuf,
}

impl Cfg {
    /// `full` is a workload's op count for a nominal 30 s window.
    pub fn scaled(&self, full: usize) -> usize {
        let n = full * self.seconds as usize / 30;
        (if self.smoke { n / 50 } else { n }).max(1)
    }

    /// Set-ups per untraced run; `setup_s` is their median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    /// Whether the op streams are the default seed's, which the pinned
    /// stream hashes and the pinned `lb_mixed` digest describe.
    pub fn default_inputs(&self) -> bool {
        self.seed == crate::inputs::DEFAULT_SEED
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: &str, ok: bool, detail: impl Into<String>) -> Check {
    Check {
        name: name.into(),
        ok,
        detail: detail.into(),
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub facts: Vec<(String, String)>,
    /// The contract's metrics: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// Printed, but neither gated nor part of the contract line.
    pub notes: Vec<Metric>,
}

/// Slices a window is cut into; each end-to-end timing is the median of
/// its per-slice values, so a burst of interference from a neighbour on
/// this shared machine moves one slice, not the result.
pub const SLICES: usize = 10;

/// Cumulative counters at a slice boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub ops: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// The timed part of a run.
#[derive(Debug)]
pub struct Window {
    /// Latency of each op in nanoseconds, in issue order.
    pub lat_ns: Vec<u32>,
    /// Slice boundaries, first at op 0 and last at the end of the window.
    pub marks: Vec<Mark>,
    pub failed: u64,
}

/// Op indexes at which slices start and end: at most [`SLICES`] slices of
/// whole `quantum`-op units, as equal as units allow. Ops past the last
/// whole unit stay outside every slice.
pub fn slice_bounds(n: usize, quantum: usize) -> Vec<usize> {
    let units = n / quantum.max(1);
    let slices = units.clamp(1, SLICES);
    (0..=slices)
        .map(|k| {
            if units == 0 {
                k * n
            } else {
                k * units / slices * quantum
            }
        })
        .collect()
}

impl Window {
    fn slices(&self) -> impl Iterator<Item = (&Mark, &Mark)> {
        self.marks.iter().zip(&self.marks[1..])
    }

    pub fn wall_s(&self) -> f64 {
        self.marks.last().map_or(0.0, |m| m.wall_s)
    }

    /// ops ÷ wall seconds of each slice.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slices()
            .map(|(a, b)| (b.ops - a.ops) as f64 / (b.wall_s - a.wall_s))
            .collect()
    }

    /// Median over slices of ops ÷ wall seconds.
    pub fn ops_per_s(&self) -> f64 {
        stats::median(&self.slice_rates())
    }

    /// Median over slices of process CPU microseconds ÷ ops.
    pub fn cpu_us_per_op(&self) -> f64 {
        let costs: Vec<f64> = self
            .slices()
            .map(|(a, b)| (b.cpu_s - a.cpu_s) * 1e6 / (b.ops - a.ops) as f64)
            .collect();
        stats::median(&costs)
    }

    /// Median over slices of each slice's nearest-rank percentile, in
    /// microseconds. When a slice is too short to leave [`MIN_BEYOND`]
    /// samples beyond `p`, the percentile of the whole window instead.
    ///
    /// [`MIN_BEYOND`]: stats::MIN_BEYOND
    pub fn percentile_us(&self, p: stats::BasisPoints) -> f64 {
        let of = |lat: &[u32]| {
            let mut sorted = lat.to_vec();
            sorted.sort_unstable();
            f64::from(stats::percentile(&sorted, p)) / 1e3
        };
        let supported = self
            .slices()
            .all(|(a, b)| stats::beyond(b.ops - a.ops, p) >= stats::MIN_BEYOND);
        if !supported {
            return of(&self.lat_ns);
        }
        let per_slice: Vec<f64> = self
            .slices()
            .map(|(a, b)| of(&self.lat_ns[a.ops..b.ops]))
            .collect();
        stats::median(&per_slice)
    }

    /// ops/s over the ops of one tenth of the window (0 = first).
    pub fn decile_rate(&self, decile: usize) -> f64 {
        let n = self.lat_ns.len();
        let slice = &self.lat_ns[decile * n / 10..(decile + 1) * n / 10];
        let ns: u64 = slice.iter().map(|&l| u64::from(l)).sum();
        slice.len() as f64 / (ns as f64 / 1e9)
    }
}

/// Run `n` ops closed-loop: `run(i)` is timed, `ok(i, result)` judges it
/// outside the op's own latency. Slices are whole multiples of `quantum`
/// ops (the length of the stream's repeating unit, 1 if it has none).
/// The latency vector is allocated up front so the window never
/// reallocates.
pub fn timed<R>(
    n: usize,
    quantum: usize,
    mut run: impl FnMut(usize) -> R,
    mut ok: impl FnMut(usize, R) -> bool,
) -> Window {
    let mut lat_ns: Vec<u32> = Vec::with_capacity(n);
    let mut failed = 0;
    let bounds = slice_bounds(n, quantum);
    let mut marks = Vec::with_capacity(bounds.len());
    let start = Instant::now();
    let mark = |marks: &mut Vec<Mark>, ops: usize| {
        marks.push(Mark {
            ops,
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: host::process_cpu_seconds(),
        })
    };
    for i in 0..n {
        if bounds.get(marks.len()) == Some(&i) {
            mark(&mut marks, i);
        }
        let t = Instant::now();
        let out = run(i);
        let ns = t.elapsed().as_nanos();
        lat_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        if !ok(i, out) {
            failed += 1;
        }
    }
    // The last boundary is the end of the window unless ops past the
    // last whole unit were left outside the slices.
    if marks.len() < bounds.len() {
        mark(&mut marks, n);
    }
    Window {
        lat_ns,
        marks,
        failed,
    }
}

/// The window's tail and CPU figures. Printed with every run, but not
/// gated: when a neighbour takes the machine for a minute they move by
/// 20–120 %, where `ops_per_s` and `p50_us` move by 5–30 % (README).
pub fn ungated(w: &Window) -> [Metric; 3] {
    [
        metric("p95_us", w.percentile_us(P95), "us"),
        metric("p99_us", w.percentile_us(P99), "us"),
        metric("cpu_us_per_op", w.cpu_us_per_op(), "us"),
    ]
}

/// The gated end-to-end metrics, plus the notes printed with them.
pub fn end_to_end(w: &Window, setups_s: &[f64]) -> (Vec<Metric>, Vec<Metric>) {
    let n = w.lat_ns.len();
    let metrics = vec![
        metric("ops_per_s", w.ops_per_s(), "1/s"),
        metric("p50_us", w.percentile_us(P50), "us"),
        metric("setup_s", stats::median(setups_s), "s"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ];
    let mut notes = ungated(w).to_vec();
    notes.extend([
        metric("samples", n as f64, "count"),
        metric("samples_beyond_p99", stats::beyond(n, P99) as f64, "count"),
        metric("slices", (w.marks.len() - 1) as f64, "count"),
        metric("timed_wall_s", w.wall_s(), "s"),
        metric("whole_window_ops_per_s", n as f64 / w.wall_s(), "1/s"),
    ]);
    for (k, rate) in w.slice_rates().into_iter().enumerate() {
        notes.push(metric(format!("slice_{k}_ops_per_s"), rate, "1/s"));
    }
    if let Some(p) = stats::highest_supported(n).filter(|&p| p > P99) {
        let mut sorted = w.lat_ns.clone();
        sorted.sort_unstable();
        let name = format!("{}_us", stats::label(p));
        let value = f64::from(stats::percentile(&sorted, p)) / 1e3;
        notes.push(metric(name, value, "us"));
    }
    (metrics, notes)
}

/// One workload. `Store` is whatever set-up builds and the window drives:
/// an embedded store, a durable one with its directory, a server with a
/// connected client.
pub trait Workload {
    type Store;
    const NAME: &'static str;

    /// Facts about this run's shape (op counts, flush policy, pinning).
    fn facts(&self) -> Vec<(String, String)>;
    /// Ops in the timed window.
    fn ops(&self) -> usize;
    /// Build the store and run the warm-up pass; the caller times it.
    /// `traced` lets a workload put its counting wrappers in place.
    fn setup(&self, traced: bool) -> Result<Self::Store, String>;
    /// The fixed, seeded op sequence, closed loop, one client.
    fn window<S: Spans>(&self, store: &mut Self::Store, spans: &mut S) -> Window;
    /// Result checks that look at the store and the window afterwards.
    fn verify(&self, store: &Self::Store, window: &Window) -> Vec<Check>;
    /// Per-layer metrics of the traced window, plus any measurements made
    /// on the store afterwards. Consumes the store.
    fn layers(
        &self,
        store: Self::Store,
        tracer: &Tracer,
        window: &Window,
    ) -> Result<(Vec<Metric>, Vec<Check>), String>;
}

/// Run `w` once: untraced for the end-to-end metrics, or traced for the
/// per-layer ones.
pub fn drive<W: Workload>(w: &W, cfg: &Cfg, traced: bool) -> Result<Run, String> {
    let mut run = Run {
        attempted: w.ops() as u64,
        facts: w.facts(),
        ..Run::default()
    };
    if !traced {
        let mut setups_s = Vec::with_capacity(cfg.setup_reps());
        let mut store = None;
        for _ in 0..cfg.setup_reps() {
            drop(store.take()); // one store at a time, as a user would hold
            let t = Instant::now();
            store = Some(w.setup(false)?);
            setups_s.push(t.elapsed().as_secs_f64());
        }
        let mut store = store.expect("at least one set-up");
        let window = w.window(&mut store, &mut Off);
        run.failed = window.failed;
        run.checks = w.verify(&store, &window);
        (run.metrics, run.notes) = end_to_end(&window, &setups_s);
        return Ok(run);
    }

    let mut tracer = Tracer::new();
    let mut store = w.setup(true)?;
    let window = w.window(&mut store, &mut tracer);
    run.failed = window.failed;
    run.checks = w.verify(&store, &window);
    let (metrics, checks) = w.layers(store, &tracer, &window)?;
    run.metrics = metrics;
    run.checks.extend(checks);

    // The same ops on an identically prepared store with tracing off: the
    // difference is what the spans cost.
    let mut store = w.setup(false)?;
    let untraced = w.window(&mut store, &mut Off);
    run.attempted += w.ops() as u64;
    run.failed += untraced.failed;
    drop(store);
    let overhead = (untraced.ops_per_s() - window.ops_per_s()) / untraced.ops_per_s();
    run.metrics
        .push(metric("trace.overhead_frac", overhead, "ratio"));
    run.metrics.extend(ungated(&untraced).map(|m| Metric {
        name: format!("untraced.{}", m.name),
        ..m
    }));
    run.notes = vec![
        metric("traced_ops_per_s", window.ops_per_s(), "1/s"),
        metric("untraced_ops_per_s", untraced.ops_per_s(), "1/s"),
        metric("trace.requests", tracer.requests() as f64, "count"),
        metric("trace.spans_kept", tracer.spans().len() as f64, "count"),
    ];

    let path = cfg.out_dir.join(format!("trace-{}.jsonl", W::NAME));
    let written = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| tracer.write_jsonl(&mut std::io::BufWriter::new(f)));
    run.checks.push(match written {
        Ok(()) => check("span_file", true, path.display().to_string()),
        Err(e) => check("span_file", false, format!("{}: {e}", path.display())),
    });
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_counts_failures_and_keeps_every_latency() {
        let mut ran = Vec::new();
        let w = timed(
            100,
            1,
            |i| {
                ran.push(i);
                i
            },
            |i, out| {
                assert_eq!(i, out);
                i % 10 != 0
            },
        );
        assert_eq!(ran, (0..100).collect::<Vec<_>>());
        assert_eq!(w.lat_ns.len(), 100);
        assert_eq!(w.failed, 10);
        assert!(w.wall_s() > 0.0 && w.ops_per_s() > 0.0);
        let ops: Vec<usize> = w.marks.iter().map(|m| m.ops).collect();
        assert_eq!(ops, (0..=10).map(|k| k * 10).collect::<Vec<_>>());
        assert!(w.marks.windows(2).all(|m| m[0].wall_s <= m[1].wall_s));
    }

    #[test]
    fn slices_are_whole_units() {
        assert_eq!(
            slice_bounds(100, 1),
            (0..=10).map(|k| k * 10).collect::<Vec<_>>()
        );
        // 2 520 trav ops are 31 whole cycles of 80 and half a cycle more.
        let b = slice_bounds(2_520, 80);
        assert_eq!(b.len(), SLICES + 1);
        assert!(b.iter().all(|x| x % 80 == 0));
        assert_eq!((b[0], b[10]), (0, 2_480));
        // Fewer units than slices: one slice per unit.
        assert_eq!(slice_bounds(250, 80), vec![0, 80, 160, 240]);
        // Not even one unit: the whole window is the only slice.
        assert_eq!(slice_bounds(50, 80), vec![0, 50]);
        assert_eq!(slice_bounds(7, 1), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    /// A window of `n` ops whose op `i` took `lat(i)` ns, sliced in ten.
    fn window(n: usize, lat: impl Fn(usize) -> u32) -> Window {
        let lat_ns: Vec<u32> = (0..n).map(&lat).collect();
        let mut wall = 0.0;
        let mut marks = Vec::new();
        let bounds = slice_bounds(n, 1);
        for (i, l) in lat_ns.iter().enumerate() {
            if bounds.contains(&i) {
                marks.push(Mark {
                    ops: i,
                    wall_s: wall,
                    cpu_s: wall / 2.0,
                });
            }
            wall += f64::from(*l) / 1e9;
        }
        marks.push(Mark {
            ops: n,
            wall_s: wall,
            cpu_s: wall / 2.0,
        });
        Window {
            lat_ns,
            marks,
            failed: 0,
        }
    }

    #[test]
    fn one_disturbed_slice_does_not_move_the_medians() {
        // 20 000 ops of 1 µs (every fiftieth 5 µs); the fourth slice
        // runs three times slower throughout.
        let base = |i: usize| if i % 50 == 49 { 5_000 } else { 1_000 };
        let calm = window(20_000, base);
        let noisy = window(20_000, |i| {
            if (6_000..8_000).contains(&i) {
                base(i) * 3
            } else {
                base(i)
            }
        });
        for w in [&calm, &noisy] {
            assert!((w.ops_per_s() - 1e9 / 1_080.0).abs() < 1.0);
            assert_eq!(w.percentile_us(P50), 1.0);
            assert_eq!(w.percentile_us(P99), 5.0);
            assert!((w.cpu_us_per_op() - 0.54).abs() < 1e-9);
        }
        assert!(noisy.wall_s() > calm.wall_s() * 1.15);
        // Slices of 100 ops cannot carry a p99: the whole window does.
        let short = window(1_000, |i| i as u32 + 1);
        assert_eq!(short.percentile_us(P99), 0.99);
        assert_eq!(short.percentile_us(P50), 0.5);
    }

    #[test]
    fn end_to_end_names_and_values() {
        let w = window(1_000, |i| (1_000 - i as u32) * 1_000);
        let (m, notes) = end_to_end(&w, &[0.3, 0.1, 0.2]);
        let names: Vec<&str> = m.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["ops_per_s", "p50_us", "setup_s", "peak_rss_mb"]);
        let get = |n: &str| m.iter().find(|x| x.name == n).expect("metric").value;
        let note = |n: &str| notes.iter().find(|x| x.name == n).expect("noted").value;
        assert_eq!((note("p95_us"), note("p99_us")), (950.0, 990.0));
        assert_eq!(get("setup_s"), 0.2);
        // 1 000 samples support p99 but nothing above it.
        assert!(notes.iter().all(|n| !n.name.starts_with("p99.")));
        // Deciles: the first tenth holds the slowest ops here.
        assert!(w.decile_rate(0) < w.decile_rate(9));
    }

    #[test]
    fn op_counts_scale_with_seconds_and_smoke() {
        let mut cfg = Cfg {
            seed: 1,
            seconds: 30,
            smoke: false,
            out_dir: PathBuf::new(),
        };
        assert_eq!(cfg.scaled(9_000_000), 9_000_000);
        assert_eq!(cfg.setup_reps(), SETUP_REPS);
        cfg.seconds = 10;
        assert_eq!(cfg.scaled(9_000_000), 3_000_000);
        cfg.smoke = true;
        assert_eq!(cfg.scaled(9_000_000), 60_000);
        assert_eq!(cfg.scaled(10), 1);
        assert_eq!(cfg.setup_reps(), 1);
    }
}
