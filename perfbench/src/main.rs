//! The repository benchmark: three workloads over the LFS stack, every
//! end-to-end metric by name and unit, and per-layer attribution from an
//! outside-in traced run.
//!
//! ```text
//! perfbench --workload <smallfile-churn|zipf-read|array-mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans <csv path>]
//! ```
//!
//! A run repeats whole rounds (generate, format, prefill, warm up,
//! measure, crash, recover, fsck, verify) of the seed's workload until
//! `--seconds` have passed, at least [`MIN_ROUNDS`] times. Virtual
//! metrics come from the first round and every round must reproduce
//! them exactly; host metrics are medians over rounds. With `--trace 1`
//! the rounds alternate between the bare stack and the traced stack (at
//! least two of each), and the per-layer metrics are reported instead of
//! the end-to-end ones.
//! The last line of standard output is one JSON object; the exit code
//! is non-zero on any correctness failure.

mod oracle;
mod plan;
mod round;
mod trace;

use std::rc::Rc;
use std::time::Instant;

use lfs_bench::interference::percentile_ns;
use sim_disk::SimDisk;
use volume::VolumeDisk;

use plan::Workload;
use round::{sum_counter, Round};
use trace::{aggregate, Bare, Phase, Traced, Tracer};

/// Fewest rounds whose median a host metric is taken over.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans" => spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

fn run_round(workload: Workload, seed: u64, tracer: Option<&Rc<Tracer>>) -> Round {
    match (workload, tracer) {
        (Workload::ArrayMix, None) => round::run::<_, VolumeDisk>(&Bare, workload, seed),
        (Workload::ArrayMix, Some(t)) => {
            round::run::<_, VolumeDisk>(&Traced(Rc::clone(t)), workload, seed)
        }
        (_, None) => round::run::<_, SimDisk>(&Bare, workload, seed),
        (_, Some(t)) => round::run::<_, SimDisk>(&Traced(Rc::clone(t)), workload, seed),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(String, f64, &'static str)>;

fn host_ops_per_s(r: &Round) -> f64 {
    ratio(r.virt.ops as f64, r.host.measure_ns as f64 / 1e9)
}

/// The end-to-end metrics (error rate aside: it travels as
/// `failed`/`attempted`).
fn end_to_end(rounds: &[Round]) -> Metrics {
    let v = &rounds[0].virt;
    let ms = |ns: u64| ns as f64 / 1e6;
    let lat = |p| ms(percentile_ns(&v.latencies, p));
    vec![
        (
            "ops_per_s".into(),
            ratio(v.ops as f64, v.elapsed_ns as f64 / 1e9),
            "ops/virt_s",
        ),
        ("op_p50_ms".into(), lat(50.0), "virt_ms"),
        ("op_p99_ms".into(), lat(99.0), "virt_ms"),
        ("op_p999_ms".into(), lat(99.9), "virt_ms"),
        (
            "write_amp".into(),
            ratio(v.disk_bytes_written as f64, v.user_bytes_written as f64),
            "ratio",
        ),
        (
            "space_amp".into(),
            ratio(v.nonclean_bytes as f64, v.live_bytes as f64),
            "ratio",
        ),
        ("recovery_ms".into(), ms(v.recovery_ns), "virt_ms"),
        (
            "host_ops_per_s".into(),
            median(rounds.iter().map(host_ops_per_s).collect()),
            "ops/s",
        ),
        (
            "setup_s".into(),
            median(
                rounds
                    .iter()
                    .map(|r| r.host.setup_ns() as f64 / 1e9)
                    .collect(),
            ),
            "s",
        ),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ]
}

fn get(counters: &[(String, u64)], name: &str) -> f64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

fn sum(counters: &[(String, u64)], suffix: &str) -> f64 {
    sum_counter(counters, suffix) as f64
}

/// Percentage of `(latency, cleaned)` ops during which a cleaning pass ran.
fn cleaning_pct<'a>(ops: impl Iterator<Item = &'a (u64, bool)>) -> f64 {
    let (all, cleaned) = ops.fold((0u64, 0u64), |(n, c), o| (n + 1, c + u64::from(o.1)));
    100.0 * ratio(cleaned as f64, all as f64)
}

/// Per-layer metrics of one traced round.
fn per_layer(r: &Round) -> Metrics {
    let m = aggregate(&r.spans, Phase::Measure);
    let e = aggregate(&r.spans, Phase::Epilogue);
    let span = |aggs: &[(&str, trace::Agg)], name: &str| {
        aggs.iter()
            .find(|(n, _)| *n == name)
            .map_or_else(trace::Agg::default, |(_, a)| *a)
    };
    let c = &r.virt.measured_counters;
    let mut out: Metrics = Vec::new();
    // `+ 0.0` turns the `-0.0` of an empty float sum into `0`.
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push((name.to_string(), value + 0.0, unit))
    };

    for op in [
        "create", "write", "read", "unlink", "fsync", "lookup", "truncate",
    ] {
        let a = span(&m, &format!("vfs.{op}"));
        put(&format!("vfs.{op}.calls"), a.calls as f64, "count");
        put(&format!("vfs.{op}.virt_ns"), a.virt_ns as f64, "virt_ns");
        put(&format!("vfs.{op}.host_ns"), a.host_ns as f64, "ns");
    }
    let vfs_self: u64 = m
        .iter()
        .filter(|(n, _)| n.starts_with("vfs."))
        .map(|(_, a)| a.self_host_ns)
        .sum();
    put("vfs.self_host_ns", vfs_self as f64, "ns");

    let disk = span(&m, "sim-disk");
    put("sim-disk.calls", disk.calls as f64, "count");
    put("sim-disk.host_ns", disk.host_ns as f64, "ns");
    for k in ["seek_ns", "rotation_ns", "transfer_ns", "stall_ns"] {
        put(
            &format!("disk.{k}"),
            sum(c, &format!("disk.{k}")),
            "virt_ns",
        );
    }
    put("disk.bytes_read", sum(c, "disk.bytes_read"), "B");
    put("disk.bytes_written", sum(c, "disk.bytes_written"), "B");
    let spindles = c
        .iter()
        .filter(|(n, _)| n.ends_with("disk.busy_ns"))
        .count()
        .max(1);
    put(
        "disk.util_pct",
        100.0
            * ratio(
                sum(c, "disk.busy_ns"),
                r.virt.elapsed_ns as f64 * spindles as f64,
            ),
        "%",
    );

    let hits = get(c, "cache.hits");
    put(
        "cache.hit_pct",
        100.0 * ratio(hits, hits + get(c, "cache.misses")),
        "%",
    );
    put("cache.evictions", get(c, "cache.evictions"), "count");
    put(
        "cache.bytes_per_flush",
        ratio(
            get(c, "cache.flush_bytes"),
            get(c, "cache.flush_chunk_writes"),
        ),
        "B",
    );
    put("cache.ghost_hits", get(c, "cache.ghost_hits"), "count");
    put(
        "cache.boundary_moves",
        get(c, "cache.boundary_moves"),
        "count",
    );

    let chunks = get(c, "log.chunks_written");
    put("lfs.chunks_written", chunks, "count");
    put(
        "lfs.partial_chunk_pct",
        100.0 * ratio(get(c, "log.partial_chunks"), chunks),
        "%",
    );
    put(
        "lfs.data_blocks_written",
        get(c, "log.data_blocks_written"),
        "count",
    );
    let meta: f64 = ["indirect", "inode", "imap", "usage", "summary"]
        .iter()
        .map(|k| get(c, &format!("log.{k}_blocks_written")))
        .sum();
    put("lfs.meta_blocks_written", meta, "count");
    put("lfs.checkpoints", get(c, "log.checkpoints"), "count");
    put(
        "lfs.verified_reads",
        get(c, "integrity.verified_reads"),
        "count",
    );

    let cleaned = get(c, "cleaner.segments_cleaned");
    let cleaner_read = get(c, "cleaner.bytes_read");
    let copied = get(c, "cleaner.blocks_copied");
    put("cleaner.segments_cleaned", cleaned, "count");
    put("cleaner.bytes_read", cleaner_read, "B");
    put("cleaner.blocks_copied", copied, "count");
    put(
        "cleaner.reclaim_pct",
        100.0
            * ratio(
                cleaned * r.segment_bytes as f64 - copied * r.block_size as f64,
                cleaner_read,
            ),
        "%",
    );
    let step = span(&m, "cleaner.step");
    put("cleaner.steps", step.calls as f64, "count");
    put("cleaner.step_host_ns", step.host_ns as f64, "ns");
    put("cleaner.step_virt_ns", step.virt_ns as f64, "virt_ns");
    put(
        "cleaner.emergency_passes",
        get(c, "cleaner.async.emergency_passes"),
        "count",
    );
    put("cleaner.passes", get(c, "cleaner.passes"), "count");

    let ec = &r.virt.epilogue_counters;
    put(
        "recovery.mount_host_ns",
        span(&e, "recovery.mount").host_ns as f64,
        "ns",
    );
    put(
        "recovery.rollforward_chunks",
        get(ec, "recovery.rollforward_chunks"),
        "count",
    );
    put(
        "recovery.parallel_reads",
        get(ec, "recovery.parallel_reads"),
        "count",
    );
    put("fsck.host_ns", span(&e, "fsck").host_ns as f64, "ns");
    put("fsck.virt_ns", r.virt.fsck_ns as f64, "virt_ns");

    let client_wait: f64 = c
        .iter()
        .filter(|(n, _)| n.contains("engine.c") && n.ends_with(".disk_wait_ns"))
        .map(|(_, v)| *v as f64)
        .sum();
    put("engine.client_wait_ns", client_wait, "virt_ns");
    put(
        "engine.maintenance_wait_ns",
        sum(c, "engine.maintenance.disk_wait_ns"),
        "virt_ns",
    );
    put(
        "engine.coalesced_writes",
        sum(c, "engine.coalesced_writes"),
        "count",
    );
    put(
        "engine.absorbed_writes",
        sum(c, "engine.absorbed_writes"),
        "count",
    );
    put(
        "engine.queue_read_hits",
        sum(c, "engine.queue_read_hits"),
        "count",
    );
    put(
        "engine.backpressure_ns",
        sum(c, "engine.backpressure_ns"),
        "virt_ns",
    );
    let depth_max = r
        .virt
        .gauges
        .iter()
        .filter(|(n, _)| n.ends_with("engine.queue_depth_max"))
        .map(|(_, v)| *v)
        .max()
        .unwrap_or(0);
    put("engine.queue_depth_max", depth_max as f64, "count");
    put(
        "engine.pump_host_ns",
        span(&m, "engine.pump").host_ns as f64,
        "ns",
    );

    let vol = span(&m, "volume");
    put("volume.calls", vol.calls as f64, "count");
    put("volume.host_ns", vol.host_ns as f64, "ns");
    put("volume.subrequests", get(c, "volume.subrequests"), "count");
    let balance = r
        .virt
        .gauges
        .iter()
        .find(|(n, _)| n == "volume.stripe_balance_millis")
        .map_or(0, |(_, v)| *v);
    put("volume.stripe_balance_millis", balance as f64, "count");

    put("setup.generate_host_ns", r.host.generate_ns as f64, "ns");
    put("setup.format_host_ns", r.host.format_ns as f64, "ns");
    put("setup.prefill_host_ns", r.host.prefill_ns as f64, "ns");
    put("setup.warmup_host_ns", r.host.warmup_ns as f64, "ns");

    // Tail attribution: the share of the ops at or beyond p99.9 during
    // which a cleaning pass ran, against the share among all ops.
    let p999 = percentile_ns(&r.virt.latencies, 99.9);
    put(
        "tail.p999_cleaning_pct",
        cleaning_pct(r.op_cleaning.iter().filter(|o| o.0 >= p999)),
        "%",
    );
    put(
        "tail.all_cleaning_pct",
        cleaning_pct(r.op_cleaning.iter()),
        "%",
    );
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workload = args.workload;
    println!("workload {} seed {}", workload.name(), args.seed);

    let start = Instant::now();
    let mut bare: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let tracer = Rc::new(Tracer::new());
    loop {
        bare.push(run_round(workload, args.seed, None));
        if args.trace {
            traced.push(run_round(workload, args.seed, Some(&tracer)));
        }
        let enough = bare.len() >= if args.trace { 2 } else { MIN_ROUNDS };
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    // Correctness: op and recovery checks, exact virtual reproduction
    // across rounds (traced ones included), a measurable cleaner.
    let mut problems: Vec<String> = Vec::new();
    let all: Vec<&Round> = bare.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failures.count).sum();
    for r in &all {
        problems.extend(r.failures.notes.iter().cloned());
    }
    let first = &bare[0].virt;
    if all.iter().any(|r| r.virt != *first) {
        problems.push("virtual metrics differ between rounds of one seed".into());
    }
    let cleaned = get(&first.measured_counters, "cleaner.segments_cleaned");
    if matches!(workload, Workload::SmallfileChurn | Workload::ArrayMix) && cleaned == 0.0 {
        problems.push("the cleaner did no work in the measured phase".into());
    }
    let n = first.latencies.len();
    let p999 = percentile_ns(&first.latencies, 99.9);
    let beyond = n - first.latencies.partition_point(|&l| l <= p999);
    if beyond < 10 {
        problems.push(format!("only {beyond} samples beyond p99.9"));
    }
    let correct = problems.is_empty() && failed == 0;

    // Human-readable report.
    let e2e = end_to_end(&bare);
    println!(
        "rounds {} untraced, {} traced; {} measured ops; {beyond} samples beyond p99.9",
        bare.len(),
        traced.len(),
        n
    );
    for (name, value, unit) in &e2e {
        println!("  {name:<16} {value:>14.4} {unit}");
    }
    println!(
        "  {:<16} {:>14.4} %",
        "error_pct",
        100.0 * ratio(failed as f64, attempted as f64)
    );
    let h = &bare[0].host;
    let s = |ns: u64| ns as f64 / 1e9;
    println!(
        "  host s (round 1): generate {:.3} format {:.3} prefill {:.3} warmup {:.3} measure {:.3} mount {:.3} fsck {:.3}",
        s(h.generate_ns), s(h.format_ns), s(h.prefill_ns), s(h.warmup_ns), s(h.measure_ns), s(h.mount_ns), s(h.fsck_ns)
    );
    let per_round = |f: &dyn Fn(&Round) -> f64| {
        bare.iter()
            .map(|r| format!("{:.3}", f(r)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  host_ops_per_s by round: {}", per_round(&host_ops_per_s));
    println!(
        "  setup_s by round: {}",
        per_round(&|r| r.host.setup_ns() as f64 / 1e9)
    );
    println!("  quarter  write_amp  segments_cleaned");
    for (q, (disk, user, segs)) in first.quarters.iter().enumerate() {
        println!(
            "  q{}       {:>9.3}  {segs}",
            q + 1,
            ratio(*disk as f64, *user as f64)
        );
    }
    for p in problems.iter().take(16) {
        println!("  FAIL {p}");
    }

    let metrics: Metrics = if args.trace {
        let rows: Vec<Metrics> = traced.iter().map(per_layer).collect();
        let mut m: Metrics = rows[0]
            .iter()
            .enumerate()
            .map(|(i, (name, _, unit))| {
                (
                    name.clone(),
                    median(rows.iter().map(|r| r[i].1).collect()),
                    *unit,
                )
            })
            .collect();
        let untraced = median(bare.iter().map(host_ops_per_s).collect());
        let with_trace = median(traced.iter().map(host_ops_per_s).collect());
        m.push((
            "trace.overhead_pct".into(),
            100.0 * (ratio(untraced, with_trace) - 1.0),
            "%",
        ));
        for (name, value, unit) in &m {
            println!("  {name:<32} {value:>18.3} {unit}");
        }
        if let (Some(path), Some(last)) = (&args.spans, traced.last()) {
            if let Err(e) = trace::write_csv(path, &last.spans) {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            }
        }
        m
    } else {
        e2e
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", value)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
