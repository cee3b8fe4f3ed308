//! `perf aa`: the same code measured in several sets of runs, to show the
//! benchmark agrees with itself before any change is measured with it.
//!
//! Each set runs every workload `--runs` times in fresh processes, run
//! `r` with seed `--seed + r`. Per (workload, metric) it prints each set's
//! median, the largest relative difference between set medians, the
//! spread inside the first set (interquartile range over its median), and
//! the bound; it fails when a difference exceeds its bound.

use crate::stats;
use crate::{spawn_workload, Args, END_TO_END, WORKLOADS};
use sqlgraph_json::Json;

/// One (workload, metric) row of the A/A table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub medians: Vec<f64>,
    /// (largest − smallest set median) ÷ smallest.
    pub difference: f64,
    /// Interquartile range of the first set ÷ its median.
    pub spread: Option<f64>,
}

/// Summarise `sets[set][run]` values of one metric.
pub fn summarise(sets: &[Vec<f64>]) -> Row {
    let medians: Vec<f64> = sets.iter().map(|s| stats::median(s)).collect();
    let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = medians.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let spread = (sets[0].len() >= 2).then(|| {
        let (q1, q2, q3) = stats::quartiles(&sets[0]);
        (q3 - q1) / q2
    });
    Row {
        medians,
        difference: (hi - lo) / lo,
        spread,
    }
}

pub fn run(args: &Args) -> Result<bool, String> {
    let untraced = Args {
        trace: false,
        ..args.clone()
    };
    // values[workload][metric][set][run]
    let mut values = vec![vec![Vec::<Vec<f64>>::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut all_ok = true;
    for set in 0..args.sets {
        for sets in values.iter_mut().flatten() {
            sets.push(Vec::with_capacity(args.runs));
        }
        for r in 0..args.runs {
            for (w, name) in WORKLOADS.iter().enumerate() {
                let seed = args.seed + r as u64;
                let child = spawn_workload(name, &untraced, seed, false)?;
                all_ok &= child.ok;
                let mut line = format!("set {} run {} seed {seed} {name}:", set + 1, r + 1);
                for (m, (metric, ..)) in END_TO_END.iter().enumerate() {
                    let v = child
                        .result
                        .get_path(["metrics", metric, "value"])
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("{name} printed no {metric}"))?;
                    values[w][m][set].push(v);
                    line.push_str(&format!(" {metric}={v:.4}"));
                }
                println!("{line}");
            }
        }
    }

    println!();
    let set_columns: String = (1..=args.sets)
        .map(|s| format!("{:>13}", format!("median {s}")))
        .collect();
    println!(
        "{:<10} {:<14}{set_columns} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "diff", "spread", "bound"
    );
    for (w, name) in WORKLOADS.iter().enumerate() {
        for (m, (metric, _, _, bound)) in END_TO_END.iter().enumerate() {
            let row = summarise(&values[w][m]);
            let ok = row.difference <= *bound;
            all_ok &= ok;
            let medians: String = row.medians.iter().map(|v| format!("{v:>13.3}")).collect();
            let spread = row
                .spread
                .map_or_else(|| "-".to_string(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "{name:<10} {metric:<14}{medians} {:>8.2}% {spread:>8} {:>5.0}%  {}",
                row.difference * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "EXCEEDS BOUND" }
            );
        }
    }
    println!(
        "\n{} sets x {} runs x {} workloads, {} s windows: {}",
        args.sets,
        args.runs,
        WORKLOADS.len(),
        args.seconds,
        if all_ok {
            "every set median agrees within its bound"
        } else {
            "FAILED"
        }
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difference_and_spread() {
        let row = summarise(&[
            vec![100.0, 102.0, 98.0, 101.0, 99.0],
            vec![104.0, 106.0, 105.0],
        ]);
        assert_eq!(row.medians, vec![100.0, 105.0]);
        assert!((row.difference - 0.05).abs() < 1e-12);
        // statistics.quantiles([98, 99, 100, 101, 102], n=4) == [98.5, 100, 101.5]
        assert!((row.spread.expect("five runs") - 0.03).abs() < 1e-12);
        assert_eq!(summarise(&[vec![1.0], vec![1.0]]).spread, None);
    }
}
