//! Outside-in tracing: forwarding wrappers around the stack's public
//! layer boundaries, recording spans in memory.
//!
//! The untraced run drives the bare stack (`Lfs<SimDisk>` or
//! `Lfs<VolumeDisk>`). The traced run swaps in [`TracedDev`] under the
//! file system and [`TracedFs`] over it, and times the driver's own calls
//! into the cleaner, the engine, recovery and fsck with [`Probe::span`].
//! Nothing inside the stack changes, and the wrappers never touch the
//! virtual clock, so every virtual metric of a traced run must equal the
//! untraced run's.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use lfs_core::Lfs;
use sim_disk::{BlockDevice, Clock, DiskResult};
use vfs::{DirEntry, FileSystem, FsResult, FsStats, Ino, Metadata};

/// Which part of a round a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Format, prefill and warm-up: spans are not recorded.
    Setup,
    /// The measured op list.
    Measure,
    /// Crash, recovery mount, fsck and verification.
    Epilogue,
}

/// One timed call across a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub phase: Phase,
    /// Measured-phase op this span ran under (`u32::MAX` outside ops).
    pub op: u32,
    /// Index of the enclosing span (`u32::MAX` for a root span).
    pub parent: u32,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
}

/// No enclosing span / no op.
pub const NONE: u32 = u32::MAX;

/// In-memory span recorder shared by the wrappers and the driver.
pub struct Tracer {
    clock: RefCell<Arc<Clock>>,
    origin: Instant,
    phase: Cell<Phase>,
    op: Cell<u32>,
    open: RefCell<Vec<u32>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            clock: RefCell::new(Clock::new()),
            origin: Instant::now(),
            phase: Cell::new(Phase::Setup),
            op: Cell::new(NONE),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Follows each round, and each remount, onto its virtual clock.
    pub fn set_clock(&self, clock: Arc<Clock>) {
        *self.clock.borrow_mut() = clock;
    }

    pub fn set_phase(&self, phase: Phase) {
        self.phase.set(phase);
    }

    pub fn set_op(&self, op: u32) {
        self.op.set(op);
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let phase = self.phase.get();
        if phase == Phase::Setup {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let idx = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
            spans.push(Span {
                name,
                phase,
                op: self.op.get(),
                parent: self.open.borrow().last().copied().unwrap_or(NONE),
                host_start_ns: 0,
                host_end_ns: 0,
                virt_start_ns: self.clock.borrow().now_ns(),
                virt_end_ns: 0,
            });
            idx
        };
        self.open.borrow_mut().push(idx);
        let t0 = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let t1 = self.origin.elapsed().as_nanos() as u64;
        self.open.borrow_mut().pop();
        let virt_end = self.clock.borrow().now_ns();
        let mut spans = self.spans.borrow_mut();
        let s = &mut spans[idx as usize];
        s.host_start_ns = t0;
        s.host_end_ns = t1;
        s.virt_end_ns = virt_end;
        out
    }
}

/// A forwarding [`BlockDevice`] that records one span per request.
///
/// Every trait method is forwarded, the defaulted ones included: a
/// wrapper that dropped `fanout` or `start_read_async` would silently
/// make recovery sequential and cleaner reads synchronous.
pub struct TracedDev<B> {
    pub inner: B,
    tracer: Rc<Tracer>,
    name: &'static str,
}

impl<B: BlockDevice> BlockDevice for TracedDev<B> {
    fn num_sectors(&self) -> u64 {
        self.inner.num_sectors()
    }
    fn read(&mut self, sector: u64, buf: &mut [u8]) -> DiskResult<()> {
        let inner = &mut self.inner;
        self.tracer.span(self.name, || inner.read(sector, buf))
    }
    fn write(&mut self, sector: u64, buf: &[u8], sync: bool) -> DiskResult<()> {
        let inner = &mut self.inner;
        self.tracer
            .span(self.name, || inner.write(sector, buf, sync))
    }
    fn flush(&mut self) -> DiskResult<()> {
        let inner = &mut self.inner;
        self.tracer.span(self.name, || inner.flush())
    }
    fn annotate(&mut self, label: &'static str) {
        self.inner.annotate(label);
    }
    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }
    fn attach_obs(&mut self, registry: &obs::Registry) {
        self.inner.attach_obs(registry);
    }
    fn set_maintenance(&mut self, on: bool) {
        self.inner.set_maintenance(on);
    }
    fn start_read_async(&mut self, sector: u64, len: usize) -> Option<u64> {
        let inner = &mut self.inner;
        self.tracer
            .span(self.name, || inner.start_read_async(sector, len))
    }
    fn finish_read_async(&mut self, token: u64) -> DiskResult<Vec<u8>> {
        let inner = &mut self.inner;
        self.tracer
            .span(self.name, || inner.finish_read_async(token))
    }
    fn fanout(&self) -> usize {
        self.inner.fanout()
    }
    fn spindle_of(&self, sector: u64) -> usize {
        self.inner.spindle_of(sector)
    }
}

/// A forwarding [`FileSystem`] that records one span per call.
pub struct TracedFs<F> {
    pub inner: F,
    tracer: Rc<Tracer>,
}

impl<F: FileSystem> TracedFs<F> {
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce(&mut F) -> R) -> R {
        let inner = &mut self.inner;
        self.tracer.span(name, || f(inner))
    }
}

impl<F: FileSystem> FileSystem for TracedFs<F> {
    fn lookup(&mut self, path: &str) -> FsResult<Ino> {
        self.call("vfs.lookup", |fs| fs.lookup(path))
    }
    fn create(&mut self, path: &str) -> FsResult<Ino> {
        self.call("vfs.create", |fs| fs.create(path))
    }
    fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
        self.call("vfs.mkdir", |fs| fs.mkdir(path))
    }
    fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.call("vfs.unlink", |fs| fs.unlink(path))
    }
    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        self.call("vfs.rmdir", |fs| fs.rmdir(path))
    }
    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        self.call("vfs.rename", |fs| fs.rename(from, to))
    }
    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        self.call("vfs.link", |fs| fs.link(existing, new))
    }
    fn read_at(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.call("vfs.read", |fs| fs.read_at(ino, offset, buf))
    }
    fn write_at(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.call("vfs.write", |fs| fs.write_at(ino, offset, data))
    }
    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        self.call("vfs.truncate", |fs| fs.truncate(ino, size))
    }
    fn stat(&mut self, ino: Ino) -> FsResult<Metadata> {
        self.call("vfs.stat", |fs| fs.stat(ino))
    }
    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
        self.call("vfs.readdir", |fs| fs.readdir(path))
    }
    fn fsync(&mut self, ino: Ino) -> FsResult<()> {
        self.call("vfs.fsync", |fs| fs.fsync(ino))
    }
    fn sync(&mut self) -> FsResult<()> {
        self.call("vfs.sync", |fs| fs.sync())
    }
    fn drop_caches(&mut self) -> FsResult<()> {
        self.call("vfs.drop_caches", |fs| fs.drop_caches())
    }
    fn fs_stats(&mut self) -> FsResult<FsStats> {
        self.call("vfs.fs_stats", |fs| fs.fs_stats())
    }
    fn set_active_client(&mut self, client: Option<u32>) {
        self.inner.set_active_client(client);
    }
}

/// How a round is instrumented: [`Bare`] (the untraced stack) or
/// [`Traced`] (wrappers and spans).
pub trait Probe {
    type Dev<B: BlockDevice>: BlockDevice;
    type Fs<D: BlockDevice>: FileSystem;

    fn wrap_dev<B: BlockDevice>(&self, dev: B, name: &'static str) -> Self::Dev<B>;
    fn unwrap_dev<B: BlockDevice>(dev: Self::Dev<B>) -> B;
    fn wrap_fs<D: BlockDevice>(&self, fs: Lfs<D>) -> Self::Fs<D>;
    fn lfs<D: BlockDevice>(fs: &mut Self::Fs<D>) -> &mut Lfs<D>;
    fn into_lfs<D: BlockDevice>(fs: Self::Fs<D>) -> Lfs<D>;
    /// Runs `f` as a span named `name` (just runs it when untraced).
    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R;
    fn tracer(&self) -> Option<&Tracer>;
}

/// The bare stack, no wrappers.
pub struct Bare;

impl Probe for Bare {
    type Dev<B: BlockDevice> = B;
    type Fs<D: BlockDevice> = Lfs<D>;

    fn wrap_dev<B: BlockDevice>(&self, dev: B, _name: &'static str) -> B {
        dev
    }
    fn unwrap_dev<B: BlockDevice>(dev: B) -> B {
        dev
    }
    fn wrap_fs<D: BlockDevice>(&self, fs: Lfs<D>) -> Lfs<D> {
        fs
    }
    fn lfs<D: BlockDevice>(fs: &mut Lfs<D>) -> &mut Lfs<D> {
        fs
    }
    fn into_lfs<D: BlockDevice>(fs: Lfs<D>) -> Lfs<D> {
        fs
    }
    fn span<R>(&self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
    fn tracer(&self) -> Option<&Tracer> {
        None
    }
}

/// The stack wrapped in [`TracedDev`] and [`TracedFs`].
pub struct Traced(pub Rc<Tracer>);

impl Probe for Traced {
    type Dev<B: BlockDevice> = TracedDev<B>;
    type Fs<D: BlockDevice> = TracedFs<Lfs<D>>;

    fn wrap_dev<B: BlockDevice>(&self, dev: B, name: &'static str) -> TracedDev<B> {
        TracedDev {
            inner: dev,
            tracer: Rc::clone(&self.0),
            name,
        }
    }
    fn unwrap_dev<B: BlockDevice>(dev: TracedDev<B>) -> B {
        dev.inner
    }
    fn wrap_fs<D: BlockDevice>(&self, fs: Lfs<D>) -> TracedFs<Lfs<D>> {
        TracedFs {
            inner: fs,
            tracer: Rc::clone(&self.0),
        }
    }
    fn lfs<D: BlockDevice>(fs: &mut TracedFs<Lfs<D>>) -> &mut Lfs<D> {
        &mut fs.inner
    }
    fn into_lfs<D: BlockDevice>(fs: TracedFs<Lfs<D>>) -> Lfs<D> {
        fs.inner
    }
    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.0.span(name, f)
    }
    fn tracer(&self) -> Option<&Tracer> {
        Some(&self.0)
    }
}

/// Host and virtual time of one span name, with self time: the span's
/// duration minus the parts of it its child spans cover.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub host_ns: u64,
    pub virt_ns: u64,
    pub self_host_ns: u64,
}

/// Aggregates spans of `phase` by name (sorted by name).
pub fn aggregate(spans: &[Span], phase: Phase) -> Vec<(&'static str, Agg)> {
    let mut child_host = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child_host[s.parent as usize] += s.host_end_ns - s.host_start_ns;
        }
    }
    let mut out: std::collections::BTreeMap<&'static str, Agg> = Default::default();
    for (s, child) in spans.iter().zip(&child_host) {
        if s.phase != phase {
            continue;
        }
        let host = s.host_end_ns - s.host_start_ns;
        let a = out.entry(s.name).or_default();
        a.calls += 1;
        a.host_ns += host;
        a.virt_ns += s.virt_end_ns - s.virt_start_ns;
        a.self_host_ns += host.saturating_sub(*child);
    }
    out.into_iter().collect()
}

/// Writes spans as CSV: one row per span, parents by row index.
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "name,phase,op,parent,host_start_ns,host_end_ns,virt_start_ns,virt_end_ns"
    )?;
    let id = |v: u32| if v == NONE { -1 } else { i64::from(v) };
    for s in spans {
        writeln!(
            w,
            "{},{:?},{},{},{},{},{},{}",
            s.name,
            s.phase,
            id(s.op),
            id(s.parent),
            s.host_start_ns,
            s.host_end_ns,
            s.virt_start_ns,
            s.virt_end_ns
        )?;
    }
    w.flush()
}
