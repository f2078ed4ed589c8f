//! One round: generate, format, prefill, warm up, run the measured op
//! list, then crash, recover, fsck and verify every file.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use engine::{EngineConfig, RequestEngine, SchedulerKind};
use lfs_core::Lfs;
use sim_disk::{BlockDevice, Clock, DiskGeometry, SimDisk};
use vfs::{FileSystem, FsError, FsResult, Ino};
use volume::{StripedVolume, VolumeConfig, VolumeDisk};

use crate::oracle::Shadow;
use crate::plan::{Kind, Media, Op, Plan, Workload};
use crate::trace::{Phase, Probe, Span};

/// The bottom of the stack: a single disk or a striped volume.
pub trait Base: BlockDevice + Sized {
    type Image;
    /// Name of the layer a [`crate::trace::TracedDev`] over it times.
    const LAYER: &'static str;
    fn fresh(plan: &Plan, clock: Arc<Clock>) -> Self;
    /// Power loss: the surviving media image.
    fn crash(self) -> Self::Image;
    fn restore(plan: &Plan, image: Self::Image, clock: Arc<Clock>) -> Self;
    /// A handle the event loop pumps, for engine-backed media.
    fn engine(&self) -> Option<VolumeDisk>;
}

fn disk_geometry(plan: &Plan) -> DiskGeometry {
    let Media::Disk { sectors } = plan.media else {
        panic!("{} does not run on a single disk", plan.workload.name());
    };
    DiskGeometry::wren_iv().with_sectors(sectors)
}

impl Base for SimDisk {
    type Image = Vec<u8>;
    const LAYER: &'static str = "sim-disk";
    fn fresh(plan: &Plan, clock: Arc<Clock>) -> Self {
        SimDisk::new(disk_geometry(plan), clock)
    }
    fn crash(self) -> Vec<u8> {
        self.into_image()
    }
    fn restore(plan: &Plan, image: Vec<u8>, clock: Arc<Clock>) -> Self {
        SimDisk::from_image(disk_geometry(plan), clock, image)
    }
    fn engine(&self) -> Option<VolumeDisk> {
        None
    }
}

fn volume_setup(plan: &Plan) -> (DiskGeometry, VolumeConfig) {
    let Media::Array { spindles, sectors } = plan.media else {
        panic!("{} does not run on a volume", plan.workload.name());
    };
    let engine = EngineConfig {
        scheduler: SchedulerKind::CLook,
        ..EngineConfig::default()
    };
    (
        DiskGeometry::wren_iv().with_sectors(sectors),
        VolumeConfig::rr_segment(spindles, plan.cfg.stripe_chunk_bytes()).with_engine(engine),
    )
}

impl Base for VolumeDisk {
    type Image = Vec<Vec<u8>>;
    const LAYER: &'static str = "volume";
    fn fresh(plan: &Plan, clock: Arc<Clock>) -> Self {
        let (geometry, cfg) = volume_setup(plan);
        VolumeDisk::new(StripedVolume::new(geometry, clock, cfg).into_shared())
    }
    fn crash(self) -> Vec<Vec<u8>> {
        self.into_images()
    }
    fn restore(plan: &Plan, images: Vec<Vec<u8>>, clock: Arc<Clock>) -> Self {
        let (geometry, cfg) = volume_setup(plan);
        VolumeDisk::new(StripedVolume::from_images(geometry, clock, cfg, images).into_shared())
    }
    fn engine(&self) -> Option<VolumeDisk> {
        Some(self.clone())
    }
}

/// Everything a round measures on the virtual clock. Two rounds of one
/// seed — traced or not — must produce equal values.
#[derive(Debug, Clone, PartialEq)]
pub struct Virt {
    pub ops: u64,
    pub elapsed_ns: u64,
    /// Per-op virtual latency of the measured phase, sorted.
    pub latencies: Vec<u64>,
    pub disk_bytes_written: u64,
    pub user_bytes_written: u64,
    /// Bytes in segments that are not clean, summed over the four
    /// quarter ends of the measured phase.
    pub nonclean_bytes: u64,
    /// Bytes of live user data, summed over the same four points.
    pub live_bytes: u64,
    pub recovery_ns: u64,
    pub fsck_ns: u64,
    /// Per quarter of the measured phase: (disk bytes written, user
    /// bytes written, segments cleaned).
    pub quarters: Vec<(u64, u64, u64)>,
    /// Every registry counter's change over the measured phase.
    pub measured_counters: Vec<(String, u64)>,
    /// Every registry counter after the recovery mount and fsck.
    pub epilogue_counters: Vec<(String, u64)>,
    /// Registry gauges at the end of the measured phase.
    pub gauges: Vec<(String, u64)>,
}

/// Host-clock timings of one round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Host {
    pub generate_ns: u64,
    pub format_ns: u64,
    pub prefill_ns: u64,
    pub warmup_ns: u64,
    pub measure_ns: u64,
    pub mount_ns: u64,
    pub fsck_ns: u64,
}

impl Host {
    pub fn setup_ns(&self) -> u64 {
        self.generate_ns + self.format_ns + self.prefill_ns + self.warmup_ns
    }
}

/// The outcome of one round.
pub struct Round {
    pub block_size: usize,
    pub segment_bytes: usize,
    pub virt: Virt,
    pub host: Host,
    pub attempted: u64,
    pub failures: Failures,
    /// Spans of a traced round.
    pub spans: Vec<Span>,
    /// Per measured op (traced rounds only): (latency, whether a
    /// cleaning pass ran inside it).
    pub op_cleaning: Vec<(u64, bool)>,
}

/// Failed ops and checks, with the first few descriptions.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub notes: Vec<String>,
}

impl Failures {
    fn add(&mut self, what: String) {
        const MAX_NOTES: usize = 8;
        self.count += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(what);
        }
    }
}

/// The state at one quarter end of the measured phase.
struct QuarterEnd {
    snap: obs::Snapshot,
    user_written: u64,
    nonclean_bytes: u64,
    live_bytes: u64,
}

/// Idle time granted to an in-flight cleaner segment read before the
/// claiming step (as in the repository's interference driver).
const CLEANER_READ_SERVICE_NS: u64 = 30_000_000;

struct Driver<'a, P: Probe, B: Base> {
    probe: &'a P,
    plan: &'a Plan,
    fs: P::Fs<P::Dev<B>>,
    pump: Option<VolumeDisk>,
    clock: Arc<Clock>,
    shadow: Shadow,
    buf: Vec<u8>,
    failures: Failures,
    cleaner_ready_ns: u64,
    op_cleaning: Vec<(u64, bool)>,
    /// User bytes written so far, all phases.
    user_written: u64,
    /// Measured ops completed, and the counts at which a quarter ends.
    measured_done: usize,
    quarter_marks: VecDeque<usize>,
    quarter_ends: Vec<QuarterEnd>,
}

fn read_full<F: FileSystem>(fs: &mut F, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
    let mut got = 0;
    while got < buf.len() {
        let n = fs.read_at(ino, offset + got as u64, &mut buf[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    Ok(got)
}

fn write_all<F: FileSystem>(fs: &mut F, ino: Ino, data: &[u8]) -> FsResult<()> {
    let mut done = 0;
    while done < data.len() {
        done += fs.write_at(ino, done as u64, &data[done..])?;
    }
    Ok(())
}

/// Sums the counters named `suffix` or ending in `.suffix` — one per
/// spindle on a volume.
pub fn sum_counter(counters: &[(String, u64)], suffix: &str) -> u64 {
    counters
        .iter()
        .filter(|(n, _)| {
            n == suffix || (n.ends_with(suffix) && n[..n.len() - suffix.len()].ends_with('.'))
        })
        .map(|(_, v)| v)
        .sum()
}

impl<P: Probe, B: Base> Driver<'_, P, B> {
    fn lfs(&mut self) -> &mut Lfs<P::Dev<B>> {
        P::lfs(&mut self.fs)
    }

    fn fail(&mut self, what: String) {
        self.failures.add(what);
    }

    fn quarter_end(&mut self) -> QuarterEnd {
        let usage = self.lfs().usage_table();
        let nonclean = u64::from(usage.nsegments()) - usage.clean_count() as u64;
        QuarterEnd {
            nonclean_bytes: nonclean * usage.seg_bytes(),
            snap: self.snapshot(),
            user_written: self.user_written,
            live_bytes: self.shadow.live_bytes(),
        }
    }

    fn exec(&mut self, op: &Op) -> Result<(), String> {
        let plan = self.plan;
        let f = op.file as usize;
        let path = plan.paths[f].as_str();
        let err = |what: &str, e: FsError| format!("{what} {path}: {e}");
        let fs = &mut self.fs;
        match op.kind {
            Kind::Overwrite(v) => {
                let ino = fs.lookup(path).map_err(|e| err("lookup", e))?;
                fs.truncate(ino, 0).map_err(|e| err("truncate", e))?;
                write_all(fs, ino, plan.pool.bytes(v)).map_err(|e| err("write", e))?;
                self.shadow.write(f, v);
                self.user_written += u64::from(v.len);
            }
            Kind::Recreate(v) => {
                fs.unlink(path).map_err(|e| err("unlink", e))?;
                self.shadow.unlink(f);
                let ino = fs.create(path).map_err(|e| err("create", e))?;
                write_all(fs, ino, plan.pool.bytes(v)).map_err(|e| err("write", e))?;
                self.shadow.write(f, v);
                self.user_written += u64::from(v.len);
            }
            Kind::Read | Kind::ReadRange { .. } => {
                let cur = self
                    .shadow
                    .current(f)
                    .ok_or_else(|| format!("read {path}: model has no file"))?;
                let (off, want) = match op.kind {
                    Kind::ReadRange { off, len } => (
                        off as u64,
                        &plan.pool.bytes(cur)[off as usize..(off + len) as usize],
                    ),
                    _ => (0, plan.pool.bytes(cur)),
                };
                let ino = fs.lookup(path).map_err(|e| err("lookup", e))?;
                // A whole-file read asks for one byte more, to catch a file
                // that grew.
                let extra = usize::from(op.kind == Kind::Read);
                let buf = &mut self.buf[..want.len() + extra];
                let n = read_full(fs, ino, off, buf).map_err(|e| err("read", e))?;
                if n != want.len() || &buf[..n] != want {
                    return Err(format!(
                        "read {path}: {n} bytes, contents differ from model"
                    ));
                }
            }
            Kind::Fsync => {
                let ino = fs.lookup(path).map_err(|e| err("lookup", e))?;
                fs.fsync(ino).map_err(|e| err("fsync", e))?;
                self.shadow.sync_file(f);
            }
        }
        Ok(())
    }

    /// Runs one op due at `due_ns`; returns its virtual latency, from when
    /// it was due (a client whose op comes due while another client's op
    /// holds the single simulated CPU waits for it).
    fn run_op(&mut self, idx: usize, op: &Op, due_ns: u64, measuring: bool) -> u64 {
        let probe = self.probe;
        let traced = measuring && probe.tracer().is_some();
        let passes_before = if traced { self.cleaning_count() } else { 0 };
        let result = match probe.tracer() {
            Some(t) if measuring => {
                t.set_op(u32::try_from(idx).expect("op index fits u32"));
                let r = t.span("op", || self.exec(op));
                t.set_op(crate::trace::NONE);
                r
            }
            _ => self.exec(op),
        };
        if let Err(e) = result {
            self.fail(e);
        }
        let lat = self.clock.now_ns() - due_ns;
        if traced {
            let cleaned = self.cleaning_count() != passes_before;
            self.op_cleaning.push((lat, cleaned));
        }
        if measuring {
            self.measured_done += 1;
            if self.quarter_marks.front() == Some(&self.measured_done) {
                self.quarter_marks.pop_front();
                let end = self.quarter_end();
                self.quarter_ends.push(end);
            }
        }
        lat
    }

    fn cleaning_count(&mut self) -> u64 {
        self.lfs().stats().cleaner_passes
    }

    /// One closed-loop caller, no think time.
    fn run_closed(&mut self, ops: &[Op], mut lat: Option<&mut Vec<u64>>) {
        for (i, op) in ops.iter().enumerate() {
            let due = self.clock.now_ns();
            let l = self.run_op(i, op, due, lat.is_some());
            if let Some(v) = lat.as_deref_mut() {
                v.push(l);
            }
        }
    }

    fn pump(&mut self) {
        if let Some(p) = &self.pump {
            if let Err(e) = self.probe.span("engine.pump", || p.pump()) {
                self.fail(format!("engine pump: {e}"));
            }
        }
    }

    /// Offers the async cleaner steps ahead of the next foreground op,
    /// due at `due_ns`: one step even when the foreground is backlogged,
    /// then as many as fit in idle time (the repository's interference
    /// driver's policy).
    fn offer_cleaner(&mut self, due_ns: u64) {
        if self.pump.is_none() {
            return;
        }
        let mut forced = false;
        loop {
            self.pump();
            let depth = self.pump.as_ref().map_or(0, |p| p.queue_depth());
            if !self.lfs().cleaner_wants_step(depth) {
                break;
            }
            let now = self.clock.now_ns();
            if now < self.cleaner_ready_ns {
                let target = self.cleaner_ready_ns.min(due_ns);
                if target <= now {
                    break;
                }
                self.clock.advance_to_ns(target);
                continue;
            }
            if forced && now >= due_ns {
                break;
            }
            if let Some(p) = &self.pump {
                p.set_client(Some(self.plan.clients));
            }
            let fs = P::lfs(&mut self.fs);
            if let Err(e) = self.probe.span("cleaner.step", || fs.cleaner_step()) {
                self.fail(format!("cleaner step: {e}"));
                break;
            }
            forced = true;
            if self.lfs().cleaner_read_pending() {
                self.cleaner_ready_ns = self.clock.now_ns() + CLEANER_READ_SERVICE_NS;
            }
        }
    }

    /// Closed-loop clients with think time, earliest-ready first, on one
    /// thread; the async cleaner is offered steps between dispatches.
    fn run_clients(&mut self, ops: &[Op], mut lat: Option<&mut Vec<u64>>) {
        let clients = self.plan.clients;
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); clients];
        for (i, op) in ops.iter().enumerate() {
            queues[op.client as usize].push_back(i);
        }
        let start = self.clock.now_ns();
        let mut ready: Vec<u64> = queues
            .iter()
            .map(|q| {
                q.front()
                    .map_or(u64::MAX, |&i| start + ops[i].think_ns as u64)
            })
            .collect();
        while let Some(c) = (0..clients)
            .filter(|&c| !queues[c].is_empty())
            .min_by_key(|&c| (ready[c], c))
        {
            let i = queues[c].pop_front().expect("non-empty queue");
            self.offer_cleaner(ready[c]);
            self.clock.advance_to_ns(ready[c]);
            self.pump();
            if let Some(p) = &self.pump {
                p.set_client(Some(c));
            }
            self.fs.set_active_client(Some(c as u32));
            let l = self.run_op(i, &ops[i], ready[c], lat.is_some());
            if let Some(v) = lat.as_deref_mut() {
                v.push(l);
            }
            if let Some(&next) = queues[c].front() {
                ready[c] = self.clock.now_ns() + ops[next].think_ns as u64;
            }
        }
        if let Some(p) = &self.pump {
            p.set_client(None);
        }
        self.fs.set_active_client(None);
    }

    fn run_ops(&mut self, ops: &[Op], lat: Option<&mut Vec<u64>>) {
        if self.plan.clients > 1 {
            self.run_clients(ops, lat);
        } else {
            self.run_closed(ops, lat);
        }
    }

    fn snapshot(&mut self) -> obs::Snapshot {
        self.lfs().obs().snapshot()
    }
}

fn delta(after: &obs::Snapshot, before: &obs::Snapshot) -> Vec<(String, u64)> {
    after
        .counters
        .iter()
        .map(|(n, v)| (n.clone(), v - before.counter(n)))
        .collect()
}

/// Runs one full round of `workload` with `seed` under `probe`.
pub fn run<P: Probe, B: Base>(probe: &P, workload: Workload, seed: u64) -> Round {
    let mut host = Host::default();
    let t = Instant::now();
    let plan = Plan::generate(workload, seed);
    host.generate_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let clock = Clock::new();
    if let Some(tr) = probe.tracer() {
        tr.set_clock(Arc::clone(&clock));
        tr.set_phase(Phase::Setup);
    }
    let base = B::fresh(&plan, Arc::clone(&clock));
    let pump = base.engine();
    if let Some(p) = &pump {
        p.register_clients(plan.clients + 1);
    }
    let dev = probe.wrap_dev(base, B::LAYER);
    let mut lfs = Lfs::format(dev, plan.cfg.clone(), Arc::clone(&clock)).expect("format");
    if let Some(mips) = plan.cpu_mips {
        lfs.set_cpu_mips(mips);
    }
    let max_len = plan.prefill.iter().map(|v| v.len).max().unwrap_or(0) as usize;
    let mut d: Driver<'_, P, B> = Driver {
        probe,
        plan: &plan,
        fs: probe.wrap_fs(lfs),
        pump,
        clock: Arc::clone(&clock),
        shadow: Shadow::new(plan.paths.len()),
        buf: vec![0; max_len.max(64 << 10) + 1],
        failures: Failures::default(),
        cleaner_ready_ns: 0,
        op_cleaning: Vec::new(),
        user_written: 0,
        measured_done: 0,
        quarter_marks: (1..=4).map(|q| plan.measured.len() * q / 4).collect(),
        quarter_ends: Vec::with_capacity(4),
    };
    host.format_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    for dir in &plan.dirs {
        d.fs.mkdir(dir).expect("mkdir");
    }
    for (f, &v) in plan.prefill.iter().enumerate() {
        d.fs.write_file(&plan.paths[f], plan.pool.bytes(v))
            .expect("prefill write");
        d.shadow.write(f, v);
    }
    d.fs.sync().expect("prefill sync");
    d.shadow.sync_all();
    host.prefill_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    d.run_ops(&plan.warmup, None);
    host.warmup_ns = t.elapsed().as_nanos() as u64;

    // Measured phase, in quarters for the steady-state evidence.
    if let Some(tr) = probe.tracer() {
        tr.set_phase(Phase::Measure);
    }
    let mut latencies = Vec::with_capacity(plan.measured.len());
    let before = (d.snapshot(), d.user_written);
    let start_ns = clock.now_ns();
    let t = Instant::now();
    d.run_ops(&plan.measured, Some(&mut latencies));
    host.measure_ns = t.elapsed().as_nanos() as u64;
    let elapsed_ns = clock.now_ns() - start_ns;
    let ends = std::mem::take(&mut d.quarter_ends);
    let written = |s: &obs::Snapshot| sum_counter(&s.counters, "disk.bytes_written");
    let cleaned = |s: &obs::Snapshot| s.counter("cleaner.segments_cleaned");
    let quarters: Vec<(u64, u64, u64)> = std::iter::once((&before.0, before.1))
        .chain(ends.iter().map(|e| (&e.snap, e.user_written)))
        .zip(&ends)
        .map(|((a, ua), b)| {
            let (sb, ub) = (&b.snap, b.user_written);
            (written(sb) - written(a), ub - ua, cleaned(sb) - cleaned(a))
        })
        .collect();
    let last = ends.last().expect("four quarter ends");
    latencies.sort_unstable();

    // Epilogue: a checkpoint, a fixed tail of ops, then a crash without
    // sync; recover, fsck and verify every file. The checkpoint pins how
    // much log the recovery rolls forward, whatever the timer did.
    if let Err(e) = d.fs.sync() {
        d.fail(format!("closing sync: {e}"));
    }
    d.shadow.sync_all();
    d.run_ops(&plan.tail, None);
    let Driver {
        fs,
        pump,
        shadow,
        mut failures,
        op_cleaning,
        ..
    } = d;
    drop(pump);
    let image = P::unwrap_dev(P::into_lfs(fs).into_device()).crash();
    let clock = Clock::new();
    if let Some(tr) = probe.tracer() {
        tr.set_clock(Arc::clone(&clock));
        tr.set_phase(Phase::Epilogue);
    }
    let dev = probe.wrap_dev(B::restore(&plan, image, Arc::clone(&clock)), B::LAYER);
    let t = Instant::now();
    let mounted = probe.span("recovery.mount", || {
        Lfs::mount(dev, plan.cfg.clone(), Arc::clone(&clock))
    });
    host.mount_ns = t.elapsed().as_nanos() as u64;
    let recovery_ns = clock.now_ns();
    let attempted = (plan.measured.len() + plan.tail.len() + plan.paths.len() + 1) as u64;
    let (fsck_ns, epilogue_counters) = match mounted {
        Err(e) => {
            failures.add(format!("recovery mount failed: {e}"));
            failures.count += plan.paths.len() as u64;
            (0, Vec::new())
        }
        Ok(mut lfs) => {
            let t = Instant::now();
            let v0 = clock.now_ns();
            let report = probe.span("fsck", || lfs.fsck());
            host.fsck_ns = t.elapsed().as_nanos() as u64;
            let fsck_ns = clock.now_ns() - v0;
            match report {
                Ok(r) if r.is_clean() => {}
                Ok(r) => failures.add(format!("fsck after recovery: {r}")),
                Err(e) => failures.add(format!("fsck after recovery failed: {e}")),
            }
            let counters = lfs.obs().snapshot().counters;
            let mut fs = probe.wrap_fs(lfs);
            for (f, path) in plan.paths.iter().enumerate() {
                let found = match fs.read_file(path) {
                    Ok(bytes) => Some(bytes),
                    Err(FsError::NotFound) => None,
                    Err(e) => {
                        failures.add(format!("read after recovery {path}: {e}"));
                        continue;
                    }
                };
                if !shadow.check_recovered(f, found.as_deref(), &plan.pool) {
                    let what = found.map_or("absent".to_string(), |b| format!("{} bytes", b.len()));
                    failures.add(format!("durability violation {path}: recovered {what}"));
                }
            }
            (fsck_ns, counters)
        }
    };
    let spans = probe.tracer().map(|t| t.take_spans()).unwrap_or_default();
    Round {
        block_size: plan.cfg.block_size,
        segment_bytes: plan.cfg.segment_bytes,
        virt: Virt {
            ops: plan.measured.len() as u64,
            elapsed_ns,
            latencies,
            disk_bytes_written: written(&last.snap) - written(&before.0),
            user_bytes_written: last.user_written - before.1,
            nonclean_bytes: ends.iter().map(|e| e.nonclean_bytes).sum(),
            live_bytes: ends.iter().map(|e| e.live_bytes).sum(),
            recovery_ns,
            fsck_ns,
            quarters,
            measured_counters: delta(&last.snap, &before.0),
            epilogue_counters,
            gauges: last.snap.gauges.clone(),
        },
        host,
        attempted,
        failures,
        spans,
        op_cleaning,
    }
}
