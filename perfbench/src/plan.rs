//! Workload definitions and their generated op lists.
//!
//! Everything a round feeds the stack — paths, payload pool, prefill
//! list, warm-up and measured op lists, think times — is generated here,
//! during set-up, from the seed alone. The timed loop only indexes it.

use lfs_core::{AsyncCleanerPolicy, CleanerRunMode, LfsConfig};
use mem_mgr::CachePolicy;
use sim_disk::DiskGeometry;

use rand::SplitMix64 as Rng;

use crate::oracle::{Pool, Version};

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallfileChurn,
    ZipfRead,
    ArrayMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "smallfile-churn" => Some(Self::SmallfileChurn),
            "zipf-read" => Some(Self::ZipfRead),
            "array-mix" => Some(Self::ArrayMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::SmallfileChurn => "smallfile-churn",
            Self::ZipfRead => "zipf-read",
            Self::ArrayMix => "array-mix",
        }
    }
}

/// What one op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Truncate the file and write `ver` over it.
    Overwrite(Version),
    /// Unlink the file, create it again and write `ver`.
    Recreate(Version),
    /// Read the whole file and check it against the shadow model.
    Read,
    /// Fsync the file.
    Fsync,
    /// Read `len` bytes at `off` of the (large) file.
    ReadRange { off: u32, len: u32 },
}

/// One generated op.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    pub file: u32,
    /// Issuing client (array-mix), 0 otherwise.
    pub client: u16,
    /// Think time before the op is issued (array-mix), 0 otherwise.
    pub think_ns: u32,
}

/// The media a workload runs on.
#[derive(Debug, Clone, Copy)]
pub enum Media {
    /// One disk with WREN IV mechanics and `sectors` of capacity.
    Disk { sectors: u64 },
    /// A segment-round-robin striped volume of WREN IV spindles.
    Array { spindles: usize, sectors: u64 },
}

/// A generated workload instance.
pub struct Plan {
    pub workload: Workload,
    pub cfg: LfsConfig,
    pub media: Media,
    /// Virtual CPU speed override (MIPS); `None` keeps the paper's CPU.
    pub cpu_mips: Option<f64>,
    pub pool: Pool,
    pub dirs: Vec<String>,
    pub paths: Vec<String>,
    /// Initial contents, written in order during prefill.
    pub prefill: Vec<Version>,
    pub warmup: Vec<Op>,
    pub measured: Vec<Op>,
    /// Ops run after the measured phase's closing checkpoint and before
    /// the crash: the log tail recovery rolls forward.
    pub tail: Vec<Op>,
    /// Closed-loop callers.
    pub clients: usize,
}

/// Bytes of random payload every version is a slice of.
const POOL_BYTES: usize = 16 << 20;

// smallfile-churn: ~7k files of 1-16 KB over 100 dirs, ~57% of a
// 128 MB disk live (~5x the cache).
const CHURN_DIRS: usize = 100;
const CHURN_FILES: usize = 7_000;
const CHURN_SECTORS: u64 = 128 << 11;
const CHURN_WARMUP: usize = 10_000;
const CHURN_OPS: usize = 12_000;
const CHURN_TAIL: usize = 1200;
const CHURN_FSYNC_EVERY: usize = 50;

// zipf-read: ~40 MB of small files (~3x the cache), one large scanned file.
const ZIPF_DIRS: usize = 40;
const ZIPF_FILES: usize = 4_000;
const ZIPF_EXPONENT: f64 = 1.0;
const ZIPF_WARMUP: usize = 5_000;
const ZIPF_OPS: usize = 15_000;
const ZIPF_TAIL: usize = 1000;
const ZIPF_TAIL_FSYNC_EVERY: usize = 10;
const SCAN_FILE_BYTES: usize = 4 << 20;
const SCAN_CHUNK: usize = 16 << 10;
const SCAN_EVERY: usize = 5_000;

// array-mix: 16 clients x 150 x 4 KB files on a 4-spindle volume.
const MIX_CLIENTS: usize = 16;
const MIX_FILES_PER_CLIENT: usize = 150;
const MIX_FILE_BYTES: usize = 4096;
const MIX_HOT_FILES: usize = 30;
const MIX_THINK_NS: u64 = 600_000;
const MIX_WARMUP_PER_CLIENT: usize = 400;
const MIX_OPS_PER_CLIENT: usize = 5_000;
const MIX_TAIL_PER_CLIENT: usize = 20;
const MIX_TAIL_FSYNC_EVERY: usize = 5;
const MIX_FSYNC_EVERY: usize = 25;
const MIX_SPINDLES: usize = 4;
const MIX_SPINDLE_SECTORS: u64 = 12 << 11; // 12 MB each
/// Async cleaner watermarks, in segments above the file system's
/// checkpoint reserve (12 segments on this 48-segment volume), so a run
/// starts well before the emergency floor at reserve + 2.
const MIX_CLEAN_LOW: usize = 6;
const MIX_CLEAN_HIGH: usize = 10;
const MIX_RESERVE: usize = 12;
const MIX_CPU_MIPS: f64 = 1000.0;

impl Plan {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let pool = Pool::new(seed, POOL_BYTES);
        let mut rng = Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        match workload {
            Workload::SmallfileChurn => churn(pool, &mut rng),
            Workload::ZipfRead => zipf(pool, &mut rng),
            Workload::ArrayMix => mix(pool, &mut rng),
        }
    }
}

/// A version of 1-16 KB, uniform in bytes.
fn small_version(pool: &Pool, rng: &mut Rng) -> Version {
    let len = 1024 + rng.below(15 * 1024 + 1) as usize;
    pool.version(rng, len)
}

fn layout(ndirs: usize, nfiles: usize, prefix: &str) -> (Vec<String>, Vec<String>) {
    let dirs: Vec<String> = (0..ndirs).map(|d| format!("/{prefix}{d:03}")).collect();
    let paths = (0..nfiles)
        .map(|f| format!("{}/f{f:05}", dirs[f % ndirs]))
        .collect();
    (dirs, paths)
}

fn op(kind: Kind, file: usize) -> Op {
    Op {
        kind,
        file: u32::try_from(file).expect("file index fits u32"),
        client: 0,
        think_ns: 0,
    }
}

fn churn(pool: Pool, rng: &mut Rng) -> Plan {
    let (dirs, paths) = layout(CHURN_DIRS, CHURN_FILES, "d");
    let prefill = (0..CHURN_FILES)
        .map(|_| small_version(&pool, rng))
        .collect();
    let mut gen = |n: usize, fsync_every: usize| {
        let mut ops = Vec::with_capacity(n + n / fsync_every);
        let mut last_written = 0;
        for i in 0..n {
            let file = rng.below(CHURN_FILES as u64) as usize;
            let roll = rng.below(100);
            let kind = if roll < 55 {
                Kind::Overwrite(small_version(&pool, rng))
            } else if roll < 70 {
                Kind::Recreate(small_version(&pool, rng))
            } else {
                Kind::Read
            };
            if kind != Kind::Read {
                last_written = file;
            }
            ops.push(op(kind, file));
            if (i + 1) % fsync_every == 0 {
                ops.push(op(Kind::Fsync, last_written));
            }
        }
        ops
    };
    let warmup = gen(CHURN_WARMUP, CHURN_FSYNC_EVERY);
    let measured = gen(CHURN_OPS, CHURN_FSYNC_EVERY);
    let tail = gen(CHURN_TAIL, CHURN_FSYNC_EVERY);
    Plan {
        workload: Workload::SmallfileChurn,
        cfg: LfsConfig::paper(),
        media: Media::Disk {
            sectors: CHURN_SECTORS,
        },
        cpu_mips: None,
        pool,
        dirs,
        paths,
        prefill,
        warmup,
        measured,
        tail,
        clients: 1,
    }
}

fn zipf(pool: Pool, rng: &mut Rng) -> Plan {
    let (dirs, mut paths) = layout(ZIPF_DIRS, ZIPF_FILES, "z");
    paths.push("/scan".to_string());
    let scan_file = ZIPF_FILES;
    let mut prefill: Vec<Version> = (0..ZIPF_FILES).map(|_| small_version(&pool, rng)).collect();
    prefill.push(pool.version(rng, SCAN_FILE_BYTES));

    // Zipf over popularity ranks, ranks assigned to files by a seeded
    // shuffle so the hot head is spread over directories and the log.
    let weights: Vec<f64> = (1..=ZIPF_FILES)
        .map(|r| (r as f64).powf(-ZIPF_EXPONENT))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    let mut by_rank: Vec<usize> = (0..ZIPF_FILES).collect();
    for i in (1..by_rank.len()).rev() {
        by_rank.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut gen = |n: usize| {
        let mut ops = Vec::with_capacity(n + n / SCAN_EVERY * (SCAN_FILE_BYTES / SCAN_CHUNK));
        for i in 0..n {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let rank = cdf.partition_point(|&c| c < u).min(ZIPF_FILES - 1);
            let file = by_rank[rank];
            let kind = if rng.below(100) < 95 {
                Kind::Read
            } else {
                Kind::Overwrite(small_version(&pool, rng))
            };
            ops.push(op(kind, file));
            if (i + 1) % SCAN_EVERY == 0 {
                for c in 0..SCAN_FILE_BYTES / SCAN_CHUNK {
                    let range = Kind::ReadRange {
                        off: (c * SCAN_CHUNK) as u32,
                        len: SCAN_CHUNK as u32,
                    };
                    ops.push(op(range, scan_file));
                }
            }
        }
        ops
    };
    let warmup = gen(ZIPF_WARMUP);
    let measured = gen(ZIPF_OPS);
    // The recovery tail is writes only: the read-mostly mix would leave
    // roll-forward almost no log to replay.
    let tail = (0..ZIPF_TAIL)
        .flat_map(|i| {
            let file = rng.below(ZIPF_FILES as u64) as usize;
            let write = op(Kind::Overwrite(small_version(&pool, rng)), file);
            let sync = ((i + 1) % ZIPF_TAIL_FSYNC_EVERY == 0).then(|| op(Kind::Fsync, file));
            std::iter::once(write).chain(sync)
        })
        .collect();
    Plan {
        workload: Workload::ZipfRead,
        cfg: LfsConfig::paper().with_cache_policy(CachePolicy::Adaptive),
        media: Media::Disk {
            sectors: DiskGeometry::wren_iv().num_sectors,
        },
        cpu_mips: None,
        pool,
        dirs,
        paths,
        prefill,
        warmup,
        measured,
        tail,
        clients: 1,
    }
}

fn mix(pool: Pool, rng: &mut Rng) -> Plan {
    let dirs: Vec<String> = (0..MIX_CLIENTS).map(|c| format!("/c{c:02}")).collect();
    let paths: Vec<String> = (0..MIX_CLIENTS * MIX_FILES_PER_CLIENT)
        .map(|f| {
            format!(
                "{}/f{:03}",
                dirs[f / MIX_FILES_PER_CLIENT],
                f % MIX_FILES_PER_CLIENT
            )
        })
        .collect();
    let prefill = (0..paths.len())
        .map(|_| pool.version(rng, MIX_FILE_BYTES))
        .collect();
    let mut gen = |per_client: usize, fsync_every: usize| {
        let mut ops = Vec::with_capacity(MIX_CLIENTS * per_client * 11 / 10);
        for c in 0..MIX_CLIENTS {
            let base = c * MIX_FILES_PER_CLIENT;
            let mut last_written = base;
            for i in 0..per_client {
                let kind = if rng.below(100) < 70 {
                    Kind::Read
                } else {
                    Kind::Overwrite(pool.version(rng, MIX_FILE_BYTES))
                };
                let file = if kind == Kind::Read {
                    base + rng.below(MIX_HOT_FILES as u64) as usize
                } else {
                    base + rng.below(MIX_FILES_PER_CLIENT as u64) as usize
                };
                if kind != Kind::Read {
                    last_written = file;
                }
                let think = |rng: &mut Rng| (MIX_THINK_NS * (75 + rng.below(51)) / 100) as u32;
                ops.push(Op {
                    kind,
                    file: file as u32,
                    client: c as u16,
                    think_ns: think(rng),
                });
                if (i + 1) % fsync_every == 0 {
                    ops.push(Op {
                        kind: Kind::Fsync,
                        file: last_written as u32,
                        client: c as u16,
                        think_ns: think(rng),
                    });
                }
            }
        }
        ops
    };
    let warmup = gen(MIX_WARMUP_PER_CLIENT, MIX_FSYNC_EVERY);
    let measured = gen(MIX_OPS_PER_CLIENT, MIX_FSYNC_EVERY);
    let tail = gen(MIX_TAIL_PER_CLIENT, MIX_TAIL_FSYNC_EVERY);
    let mut cfg = LfsConfig::paper()
        .with_cache_policy(CachePolicy::Adaptive)
        .with_recovery_fanout(0);
    cfg.cleaner.run_mode = CleanerRunMode::Async(
        AsyncCleanerPolicy::default()
            .with_watermarks(MIX_RESERVE + MIX_CLEAN_LOW, MIX_RESERVE + MIX_CLEAN_HIGH)
            .with_stripe_spindles(MIX_SPINDLES),
    );
    Plan {
        workload: Workload::ArrayMix,
        cfg,
        media: Media::Array {
            spindles: MIX_SPINDLES,
            sectors: MIX_SPINDLE_SECTORS,
        },
        cpu_mips: Some(MIX_CPU_MIPS),
        pool,
        dirs,
        paths,
        prefill,
        warmup,
        measured,
        tail,
        clients: MIX_CLIENTS,
    }
}
