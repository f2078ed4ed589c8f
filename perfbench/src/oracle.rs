//! The correctness oracle: a payload pool and a shadow model of every
//! file's written and synced versions.

use rand::SplitMix64 as Rng;

/// A file's contents: `len` bytes of the pool starting at `off`. Offsets
/// are drawn at random over a pool of many megabytes, so two versions
/// (of one file or of two files) share bytes only by a vanishing chance,
/// and a read of the wrong version or of another file's blocks shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    pub off: u32,
    pub len: u32,
}

/// Random bytes every written payload is a slice of, built in set-up.
pub struct Pool(Vec<u8>);

impl Pool {
    pub fn new(seed: u64, bytes: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0x706F_6F6C);
        let mut v = Vec::with_capacity(bytes + 8);
        while v.len() < bytes {
            v.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        v.truncate(bytes);
        Self(v)
    }

    /// A fresh version of `len` bytes.
    pub fn version(&self, rng: &mut Rng, len: usize) -> Version {
        let off = rng.below((self.0.len() - len) as u64 + 1);
        Version {
            off: u32::try_from(off).expect("pool below 4 GiB"),
            len: u32::try_from(len).expect("file below 4 GiB"),
        }
    }

    pub fn bytes(&self, v: Version) -> &[u8] {
        &self.0[v.off as usize..(v.off + v.len) as usize]
    }
}

/// One file's history as the file system has promised it.
#[derive(Debug, Clone, Default)]
struct FileModel {
    /// What a read must return now (`None`: the file does not exist).
    current: Option<Version>,
    /// What the file held at its last fsync / global sync.
    synced: Option<Version>,
    /// States written since that sync, in order (`None`: unlinked).
    since_sync: Vec<Option<Version>>,
}

/// The shadow model of every file the workload touches.
pub struct Shadow {
    files: Vec<FileModel>,
}

impl Shadow {
    pub fn new(files: usize) -> Self {
        Self {
            files: vec![FileModel::default(); files],
        }
    }

    pub fn current(&self, file: usize) -> Option<Version> {
        self.files[file].current
    }

    /// Bytes of all existing files.
    pub fn live_bytes(&self) -> u64 {
        self.files
            .iter()
            .filter_map(|m| m.current)
            .map(|v| u64::from(v.len))
            .sum()
    }

    pub fn write(&mut self, file: usize, v: Version) {
        let m = &mut self.files[file];
        m.current = Some(v);
        m.since_sync.push(Some(v));
    }

    pub fn unlink(&mut self, file: usize) {
        let m = &mut self.files[file];
        m.current = None;
        m.since_sync.push(None);
    }

    pub fn sync_file(&mut self, file: usize) {
        let m = &mut self.files[file];
        m.synced = m.current;
        m.since_sync.clear();
    }

    pub fn sync_all(&mut self) {
        for f in 0..self.files.len() {
            self.sync_file(f);
        }
    }

    /// Checks what a file holds after a crash and recovery.
    ///
    /// A file untouched since its last sync must hold exactly its synced
    /// state. A file written since may hold its synced state or any
    /// state written after it. Because a whole-file overwrite is several
    /// calls (truncate, then writes), a write-back can land between
    /// them, so a later version may also appear cut short — as a prefix
    /// of itself, never with bytes of any other version or file.
    pub fn check_recovered(&self, file: usize, found: Option<&[u8]>, pool: &Pool) -> bool {
        let m = &self.files[file];
        let matches = |state: Option<Version>, torn_ok: bool| match (state, found) {
            (None, None) => true,
            (Some(v), Some(bytes)) => {
                let want = pool.bytes(v);
                bytes == want || (torn_ok && bytes.len() < want.len() && want.starts_with(bytes))
            }
            _ => false,
        };
        if m.since_sync.is_empty() {
            return matches(m.synced, false);
        }
        matches(m.synced, false) || m.since_sync.iter().any(|&s| matches(s, true))
    }
}
