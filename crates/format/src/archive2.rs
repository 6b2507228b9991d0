//! Archive v2 — the zero-copy mmap weight container, and the one weight
//! archive format of the workspace.
//!
//! Shipping the *encoded* streams (the paper's Fig. 5 memory map,
//! [`crate::chunk::PackedTensor`]) would make every load bias-decode each
//! tensor and re-pack its weight panels — exactly the work a cold serving
//! start pays per tensor. Archive v2 stores each tensor's planes
//! **exactly as the kernels consume them**, so a load is pointer
//! arithmetic over an mmapped file:
//!
//! * the [`crate::PackedOperands`] planes — `mag` (`u16` LE), `meta`
//!   (`u8`), the pre-shifted folded-significand `sval` (`i16` LE) — each
//!   at a 64-byte-aligned file offset (the mapping base is ≥ 64-byte
//!   aligned, so file-offset alignment carries into memory and the
//!   32-byte [`crate::plane::SVAL_PLANE_ALIGN`] contract holds);
//! * the K-major, [`crate::packed::PANEL_K_PAD`]-padded weight panels of
//!   [`crate::PackedPanels`], pre-packed on disk;
//! * the sorted outlier `(position, exp)` side tables;
//! * CRC32C digests: one per plane, plus per-[`crate::crc::SVAL_TILE`]
//!   tile tables over the `sval` and panel planes (the same granule
//!   `owlp-integrity` checks at), so corruption localises to a 512-byte
//!   tile.
//!
//! ## Byte layout
//!
//! ```text
//! header   "OWL2" | version u32 | reserved u64                  (16 B)
//! tensor*  mag | meta | sval | panels | outlier_pos | outlier_exp
//!          (each plane starts 64-byte aligned; gaps are zeros)
//! index    per tensor:
//!            name_len u16 | name | elements u64 | k u64 | n u64
//!            | shared_exp u8 | flags u8 | pad[6]
//!            | stored_outliers u64
//!            | 6 × { offset u64 | byte_len u64 | crc u32 | pad u32 }
//!            | sval_tile_count u32 | crc u32 ×count
//!            | panel_tile_count u32 | crc u32 ×count
//! footer   index_offset u64 | index_len u64 | file_len u64
//!          | tensor_count u32 | index_crc u32 | "2LWO"          (36 B)
//! ```
//!
//! All integers are little-endian.
//!
//! ## Writing
//!
//! [`ArchiveWriter::add_planes`] appends the planes a weight already
//! holds — its [`crate::PackedOperands`] and [`crate::PackedPanels`] — in
//! the order above, strictly forward, digesting each plane and tile from
//! memory; [`ArchiveWriter::add_tensor_slice`] first encodes, decodes and
//! panel-packs a BF16 tensor. Either way the bytes depend only on the
//! weight's values, which the tests pin across entry points, SIMD tiers
//! and thread counts.

use crate::bf16::Bf16;
use crate::crc::{crc32c_bytes, SVAL_TILE};
use crate::encode::encode_tensor;
use crate::error::FormatError;
use crate::mmap::MappedFile;
use crate::packed::{PackedOperands, PackedPanels};
use crate::plane::{Plane, SvalPlane};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Header magic.
pub const ARCHIVE2_MAGIC: &[u8; 4] = b"OWL2";
/// Footer magic (the header magic reversed — a torn file fails both).
pub const ARCHIVE2_FOOTER_MAGIC: &[u8; 4] = b"2LWO";
/// Format version.
pub const ARCHIVE2_VERSION: u32 = 2;
/// Every plane starts at a multiple of this file offset.
pub const PLANE_ALIGN: u64 = 64;

const HEADER_LEN: u64 = 16;
const FOOTER_LEN: usize = 36;

/// Errors from the archive v2 writer and loader.
#[derive(Debug)]
pub enum ArchiveError {
    /// An underlying file operation failed.
    Io(io::Error),
    /// The archive bytes are malformed (or a plane failed validation).
    Format(FormatError),
    /// A stored CRC32C digest did not match the bytes on disk.
    Digest {
        /// Tensor whose plane failed.
        tensor: String,
        /// Which plane (or tile table) failed.
        plane: &'static str,
    },
    /// The requested tensor is not in the archive.
    MissingTensor {
        /// The name looked up.
        name: String,
    },
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive i/o failed: {e}"),
            ArchiveError::Format(e) => write!(f, "{e}"),
            ArchiveError::Digest { tensor, plane } => {
                write!(f, "digest mismatch on tensor {tensor:?} plane {plane}")
            }
            ArchiveError::MissingTensor { name } => {
                write!(f, "tensor {name:?} is not in the archive")
            }
        }
    }
}

impl std::error::Error for ArchiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArchiveError::Io(e) => Some(e),
            ArchiveError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArchiveError {
    fn from(e: io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

impl From<FormatError> for ArchiveError {
    fn from(e: FormatError) -> Self {
        ArchiveError::Format(e)
    }
}

/// One plane's location and whole-plane digest in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneDesc {
    /// Absolute file offset (64-byte aligned for non-empty planes).
    pub offset: u64,
    /// Plane length in bytes.
    pub byte_len: u64,
    /// CRC32C over the plane bytes.
    pub crc: u32,
}

const PLANE_NAMES: [&str; 6] = [
    "mag",
    "meta",
    "sval",
    "panels",
    "outlier_pos",
    "outlier_exp",
];

#[derive(Debug, Clone)]
struct TensorEntry {
    name: String,
    elements: u64,
    k: u64,
    n: u64,
    shared_exp: u8,
    flags: u8,
    stored_outliers: u64,
    planes: [PlaneDesc; 6],
    sval_tiles: Vec<u32>,
    panel_tiles: Vec<u32>,
}

const FLAG_HAS_PANELS: u8 = 1 << 0;

fn align_up(off: u64) -> u64 {
    off.next_multiple_of(PLANE_ALIGN)
}

/// `words` as little-endian bytes, staged in `out`.
fn le_bytes<'a, T: Copy, const W: usize>(
    words: &[T],
    to_le: fn(T) -> [u8; W],
    out: &'a mut Vec<u8>,
) -> &'a [u8] {
    out.clear();
    for &w in words {
        out.extend_from_slice(&to_le(w));
    }
    out
}

/// CRC32C of each [`SVAL_TILE`]-word (512-byte) tile of a plane, the
/// granule `owlp-integrity` localises faults at.
fn tile_crcs(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks(SVAL_TILE * 2).map(crc32c_bytes).collect()
}

/// Summary the writer returns from [`ArchiveWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveSummary {
    /// Tensors written.
    pub tensors: usize,
    /// Final file length in bytes.
    pub file_len: u64,
    /// The most bytes the writer allocated for one tensor: its staging
    /// buffer, plus the planes and panels
    /// [`ArchiveWriter::add_tensor_slice`] built (the planes
    /// [`ArchiveWriter::add_planes`] writes belong to its caller).
    pub peak_alloc: usize,
}

/// Archive v2 writer: appends each tensor's planes (see the module docs).
///
/// The archive is written to a unique sibling of the target path and
/// renamed over it by [`ArchiveWriter::finish`], so a reader that has the
/// old file mapped keeps reading the old bytes. A writer dropped before
/// `finish` removes its sibling and leaves the target untouched.
#[derive(Debug)]
pub struct ArchiveWriter {
    file: File,
    /// Where `finish` puts the archive.
    path: PathBuf,
    /// The sibling being written; `None` once renamed onto `path`.
    staging: Option<PathBuf>,
    /// Bytes written so far.
    cursor: u64,
    entries: Vec<TensorEntry>,
    /// See [`ArchiveSummary::peak_alloc`].
    peak_alloc: usize,
}

impl ArchiveWriter {
    /// Starts an archive that [`ArchiveWriter::finish`] will place at
    /// `path` (replacing any file there).
    ///
    /// # Errors
    ///
    /// Propagates file creation failures.
    pub fn create(path: &Path) -> Result<Self, ArchiveError> {
        let (file, staging) = create_staging(path)?;
        // Built before the first write so `Drop` cleans up on any error.
        let mut writer = ArchiveWriter {
            file,
            path: path.to_path_buf(),
            staging: Some(staging),
            cursor: HEADER_LEN,
            entries: Vec::new(),
            peak_alloc: 0,
        };
        let mut header = [0u8; HEADER_LEN as usize];
        header[..4].copy_from_slice(ARCHIVE2_MAGIC);
        header[4..8].copy_from_slice(&ARCHIVE2_VERSION.to_le_bytes());
        writer.file.write_all(&header)?;
        Ok(writer)
    }

    /// Appends `bytes` at the next [`PLANE_ALIGN`] boundary (zero-filling
    /// the gap) and describes where they landed.
    fn append(&mut self, bytes: &[u8]) -> io::Result<PlaneDesc> {
        let offset = align_up(self.cursor);
        self.file
            .write_all(&[0; PLANE_ALIGN as usize][..(offset - self.cursor) as usize])?;
        self.file.write_all(bytes)?;
        self.cursor = offset + bytes.len() as u64;
        Ok(PlaneDesc {
            offset,
            byte_len: bytes.len() as u64,
            crc: crc32c_bytes(bytes),
        })
    }

    /// Writes a `k×n` weight's planes under `name`: `packed` and its
    /// panels, `packed.pack_panels(k, n)` or a mapped copy of them.
    ///
    /// # Errors
    ///
    /// I/O failures, [`FormatError::ShapeMismatch`] when `packed` does not
    /// hold `k·n` values, or [`FormatError::CorruptStream`] for a
    /// duplicate name or `panels` packed for another shape.
    pub fn add_planes(
        &mut self,
        name: &str,
        k: usize,
        n: usize,
        packed: &PackedOperands,
        panels: &PackedPanels,
    ) -> Result<(), ArchiveError> {
        self.write_planes(name, k, n, packed, panels, 0)
    }

    /// Encodes a `k×n` row-major BF16 tensor and writes its planes and
    /// panels under `name`, as [`ArchiveWriter::add_planes`] would.
    ///
    /// # Errors
    ///
    /// As [`ArchiveWriter::add_planes`]; additionally non-finite input
    /// ([`FormatError::NonFinite`]).
    pub fn add_tensor_slice(
        &mut self,
        name: &str,
        k: usize,
        n: usize,
        data: &[Bf16],
    ) -> Result<(), ArchiveError> {
        if data.len() != k * n {
            return Err(FormatError::ShapeMismatch {
                expected: k * n,
                actual: data.len(),
            }
            .into());
        }
        let packed = encode_tensor(data, None)?.decode_packed();
        let panels = packed.pack_panels(k, n);
        // mag, meta and sval take 5 bytes a value; pos and exp 5 bytes a
        // tagged outlier.
        let built = 5 * (packed.len() + packed.tagged_count()) + 2 * panels.data().len();
        self.write_planes(name, k, n, &packed, &panels, built)
    }

    /// [`ArchiveWriter::add_planes`], charging `built` bytes the caller
    /// allocated for these planes to the peak alongside the staging
    /// buffer.
    fn write_planes(
        &mut self,
        name: &str,
        k: usize,
        n: usize,
        packed: &PackedOperands,
        panels: &PackedPanels,
        built: usize,
    ) -> Result<(), ArchiveError> {
        if self.entries.iter().any(|e| e.name == name) {
            return Err(FormatError::CorruptStream {
                reason: "duplicate tensor name",
            }
            .into());
        }
        if packed.len() != k * n {
            return Err(FormatError::ShapeMismatch {
                expected: k * n,
                actual: packed.len(),
            }
            .into());
        }
        if (panels.k(), panels.n()) != (k, n) {
            return Err(FormatError::CorruptStream {
                reason: "panels packed for another shape",
            }
            .into());
        }
        let stage_len = (2 * packed.len())
            .max(2 * panels.data().len())
            .max(4 * packed.tagged_count());
        let mut stage = Vec::with_capacity(stage_len);
        let mag = self.append(le_bytes(packed.mags(), u16::to_le_bytes, &mut stage))?;
        let meta = self.append(packed.metas())?;
        let sval = self.append(le_bytes(packed.svals(), i16::to_le_bytes, &mut stage))?;
        let sval_tiles = tile_crcs(&stage);
        let panel = self.append(le_bytes(panels.data(), i16::to_le_bytes, &mut stage))?;
        let panel_tiles = tile_crcs(&stage);
        let pos = self.append(le_bytes(
            packed.outlier_positions(),
            u32::to_le_bytes,
            &mut stage,
        ))?;
        let exp = self.append(packed.outlier_exps())?;
        self.peak_alloc = self.peak_alloc.max(built + stage_len);
        self.entries.push(TensorEntry {
            name: name.to_string(),
            elements: packed.len() as u64,
            k: k as u64,
            n: n as u64,
            shared_exp: packed.shared_exp(),
            flags: FLAG_HAS_PANELS,
            stored_outliers: packed.stored_outlier_count() as u64,
            planes: [mag, meta, sval, panel, pos, exp],
            sval_tiles,
            panel_tiles,
        });
        Ok(())
    }

    /// Writes the index and footer, syncs the file, and renames it onto
    /// the target path.
    ///
    /// # Errors
    ///
    /// Propagates write/sync/rename failures.
    pub fn finish(mut self) -> Result<ArchiveSummary, ArchiveError> {
        let mut index = Vec::new();
        for e in &self.entries {
            index.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
            index.extend_from_slice(e.name.as_bytes());
            index.extend_from_slice(&e.elements.to_le_bytes());
            index.extend_from_slice(&e.k.to_le_bytes());
            index.extend_from_slice(&e.n.to_le_bytes());
            index.push(e.shared_exp);
            index.push(e.flags);
            index.extend_from_slice(&[0u8; 6]);
            index.extend_from_slice(&e.stored_outliers.to_le_bytes());
            for p in &e.planes {
                index.extend_from_slice(&p.offset.to_le_bytes());
                index.extend_from_slice(&p.byte_len.to_le_bytes());
                index.extend_from_slice(&p.crc.to_le_bytes());
                index.extend_from_slice(&0u32.to_le_bytes());
            }
            for table in [&e.sval_tiles, &e.panel_tiles] {
                index.extend_from_slice(&(table.len() as u32).to_le_bytes());
                for crc in table {
                    index.extend_from_slice(&crc.to_le_bytes());
                }
            }
        }
        let index_desc = self.append(&index)?;
        let file_len = self.cursor + FOOTER_LEN as u64;
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        footer.extend_from_slice(&index_desc.offset.to_le_bytes());
        footer.extend_from_slice(&index_desc.byte_len.to_le_bytes());
        footer.extend_from_slice(&file_len.to_le_bytes());
        footer.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        footer.extend_from_slice(&index_desc.crc.to_le_bytes());
        footer.extend_from_slice(ARCHIVE2_FOOTER_MAGIC);
        self.file.write_all(&footer)?;
        self.file.sync_all()?;
        if let Some(staging) = &self.staging {
            std::fs::rename(staging, &self.path)?;
        }
        self.staging = None;
        Ok(ArchiveSummary {
            tensors: self.entries.len(),
            file_len,
            peak_alloc: self.peak_alloc,
        })
    }
}

impl Drop for ArchiveWriter {
    fn drop(&mut self) {
        if let Some(staging) = self.staging.take() {
            let _ = std::fs::remove_file(staging);
        }
    }
}

/// Creates a fresh, uniquely named sibling of `path` to stage an archive
/// in. Same directory, so the final rename stays on one filesystem.
fn create_staging(path: &Path) -> io::Result<(File, PathBuf)> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "archive path has no file name")
    })?;
    loop {
        let mut staged = std::ffi::OsString::from(".");
        staged.push(name);
        staged.push(format!(
            ".{}.{}.tmp",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let staging = path.with_file_name(staged);
        match OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&staging)
        {
            Ok(file) => return Ok((file, staging)),
            // A leftover from an earlier process with the same pid.
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

/// A loaded tensor borrowing its planes from the mapped archive (owned
/// decoded copies on big-endian targets — same API either way).
#[derive(Debug, Clone)]
pub struct MappedTensor {
    name: String,
    k: usize,
    n: usize,
    operands: PackedOperands,
    panels: Option<PackedPanels>,
}

impl MappedTensor {
    /// The tensor's archive name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rows (reduction depth when used as a GEMM weight).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The packed operand planes.
    pub fn operands(&self) -> &PackedOperands {
        &self.operands
    }

    /// The pre-packed weight panels, when the archive stored them.
    pub fn panels(&self) -> Option<&PackedPanels> {
        self.panels.as_ref()
    }

    /// Decomposes into the operand planes and panels (the arith layer's
    /// `PreparedTensor::from_mapped` input).
    pub fn into_parts(self) -> (PackedOperands, Option<PackedPanels>) {
        (self.operands, self.panels)
    }

    /// Whether any plane is a zero-copy view into the mapped file.
    pub fn is_mapped(&self) -> bool {
        self.operands.is_mapped() || self.panels.as_ref().is_some_and(PackedPanels::is_mapped)
    }

    /// Reconstructs the tensor's BF16 values exactly.
    pub fn to_bf16_vec(&self) -> Vec<Bf16> {
        self.operands.to_bf16_vec()
    }
}

/// Per-tensor digest summary from [`MappedArchive::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Tensors scrubbed.
    pub tensors: usize,
    /// Whole-plane digests checked.
    pub planes: usize,
    /// 512-byte tile digests checked (sval + panel tables).
    pub tiles: usize,
}

/// A read-only archive v2, mmapped: opening validates only the header,
/// footer and index digest (O(index)); plane digests are verified per
/// tensor on [`MappedArchive::tensor`] or all at once by
/// [`MappedArchive::verify`].
#[derive(Debug)]
pub struct MappedArchive {
    file: Arc<MappedFile>,
    entries: Vec<TensorEntry>,
    by_name: BTreeMap<String, usize>,
}

impl MappedArchive {
    /// Maps and indexes the archive at `path`.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`FormatError::CorruptStream`] when the header,
    /// footer, index digest or index structure is malformed.
    pub fn open(path: &Path) -> Result<Self, ArchiveError> {
        let file = Arc::new(MappedFile::open(path)?);
        let bytes = file.bytes();
        let corrupt =
            |reason: &'static str| -> ArchiveError { FormatError::CorruptStream { reason }.into() };
        if bytes.len() < HEADER_LEN as usize + FOOTER_LEN {
            return Err(corrupt("archive shorter than header and footer"));
        }
        if &bytes[..4] != ARCHIVE2_MAGIC {
            return Err(corrupt("bad archive magic"));
        }
        if u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) != ARCHIVE2_VERSION {
            return Err(corrupt("unsupported archive version"));
        }
        let foot = &bytes[bytes.len() - FOOTER_LEN..];
        if &foot[32..36] != ARCHIVE2_FOOTER_MAGIC {
            return Err(corrupt("bad footer magic"));
        }
        let index_off = u64::from_le_bytes(foot[0..8].try_into().expect("8 bytes"));
        let index_len = u64::from_le_bytes(foot[8..16].try_into().expect("8 bytes"));
        let file_len = u64::from_le_bytes(foot[16..24].try_into().expect("8 bytes"));
        let count = u32::from_le_bytes(foot[24..28].try_into().expect("4 bytes")) as usize;
        let index_crc = u32::from_le_bytes(foot[28..32].try_into().expect("4 bytes"));
        if file_len != bytes.len() as u64 {
            return Err(corrupt("archive truncated or extended"));
        }
        let index_end = index_off
            .checked_add(index_len)
            .filter(|&e| e + FOOTER_LEN as u64 == file_len)
            .ok_or_else(|| corrupt("index does not abut the footer"))?;
        let index = &bytes[index_off as usize..index_end as usize];
        if crc32c_bytes(index) != index_crc {
            return Err(corrupt("index digest mismatch"));
        }
        let entries = parse_index(index, count, file_len)?;
        let mut by_name = BTreeMap::new();
        for (i, e) in entries.iter().enumerate() {
            if by_name.insert(e.name.clone(), i).is_some() {
                return Err(corrupt("duplicate tensor name"));
            }
        }
        Ok(MappedArchive {
            file,
            entries,
            by_name,
        })
    }

    /// Tensor names in archive (insertion) order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.name.as_str())
    }

    /// Number of tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the bytes are served by a real `mmap` (vs the aligned
    /// heap-read fallback).
    pub fn was_mapped(&self) -> bool {
        self.file.was_mapped()
    }

    fn entry(&self, name: &str) -> Result<&TensorEntry, ArchiveError> {
        let &i = self
            .by_name
            .get(name)
            .ok_or_else(|| ArchiveError::MissingTensor {
                name: name.to_string(),
            })?;
        Ok(&self.entries[i])
    }

    /// Loads `name` after verifying each plane's whole-plane CRC32C
    /// digest against the mapped bytes — the default integrity posture.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::MissingTensor`], [`ArchiveError::Digest`], or
    /// plane-validation failures.
    pub fn tensor(&self, name: &str) -> Result<MappedTensor, ArchiveError> {
        let e = self.entry(name)?;
        for (p, plane_name) in e.planes.iter().zip(PLANE_NAMES) {
            let bytes = self.plane_bytes(p);
            if crc32c_bytes(bytes) != p.crc {
                return Err(ArchiveError::Digest {
                    tensor: e.name.clone(),
                    plane: plane_name,
                });
            }
        }
        self.build_tensor(e)
    }

    /// Loads `name` without digest verification — pure pointer work, for
    /// callers that scrub separately (or measure cold-load floors).
    ///
    /// # Errors
    ///
    /// [`ArchiveError::MissingTensor`] or plane-validation failures.
    pub fn tensor_unverified(&self, name: &str) -> Result<MappedTensor, ArchiveError> {
        self.build_tensor(self.entry(name)?)
    }

    /// Scrubs every tensor: whole-plane digests plus the per-tile tables
    /// over the `sval` and panel planes.
    ///
    /// # Errors
    ///
    /// The first [`ArchiveError::Digest`] mismatch found.
    pub fn verify(&self) -> Result<VerifyReport, ArchiveError> {
        let mut report = VerifyReport::default();
        for e in &self.entries {
            for (p, plane_name) in e.planes.iter().zip(PLANE_NAMES) {
                if crc32c_bytes(self.plane_bytes(p)) != p.crc {
                    return Err(ArchiveError::Digest {
                        tensor: e.name.clone(),
                        plane: plane_name,
                    });
                }
                report.planes += 1;
            }
            for (desc, table, plane_name) in [
                (&e.planes[2], &e.sval_tiles, "sval tiles"),
                (&e.planes[3], &e.panel_tiles, "panel tiles"),
            ] {
                let bytes = self.plane_bytes(desc);
                let tile_bytes = SVAL_TILE * 2;
                if table.len() != bytes.len().div_ceil(tile_bytes) {
                    return Err(ArchiveError::Digest {
                        tensor: e.name.clone(),
                        plane: plane_name,
                    });
                }
                for (i, chunk) in bytes.chunks(tile_bytes).enumerate() {
                    if crc32c_bytes(chunk) != table[i] {
                        return Err(ArchiveError::Digest {
                            tensor: e.name.clone(),
                            plane: plane_name,
                        });
                    }
                    report.tiles += 1;
                }
            }
            report.tensors += 1;
        }
        Ok(report)
    }

    fn plane_bytes(&self, p: &PlaneDesc) -> &[u8] {
        &self.file.bytes()[p.offset as usize..(p.offset + p.byte_len) as usize]
    }

    fn build_tensor(&self, e: &TensorEntry) -> Result<MappedTensor, ArchiveError> {
        let elements = e.elements as usize;
        let tagged = (e.planes[4].byte_len / 4) as usize;
        let mag = Plane::<u16>::from_mapped(&self.file, e.planes[0].offset as usize, elements)?;
        let meta = Plane::<u8>::from_mapped(&self.file, e.planes[1].offset as usize, elements)?;
        let sval = SvalPlane::from_mapped(&self.file, e.planes[2].offset as usize, elements)?;
        let pos = Plane::<u32>::from_mapped(&self.file, e.planes[4].offset as usize, tagged)?;
        let exp = Plane::<u8>::from_mapped(&self.file, e.planes[5].offset as usize, tagged)?;
        let operands = PackedOperands::from_planes(
            e.shared_exp,
            e.stored_outliers as usize,
            mag,
            meta,
            sval,
            pos,
            exp,
        )?;
        let panels = if e.flags & FLAG_HAS_PANELS != 0 {
            let words = (e.planes[3].byte_len / 2) as usize;
            let plane = SvalPlane::from_mapped(&self.file, e.planes[3].offset as usize, words)?;
            Some(PackedPanels::from_plane(e.k as usize, e.n as usize, plane)?)
        } else {
            None
        };
        Ok(MappedTensor {
            name: e.name.clone(),
            k: e.k as usize,
            n: e.n as usize,
            operands,
            panels,
        })
    }
}

fn parse_index(
    index: &[u8],
    count: usize,
    file_len: u64,
) -> Result<Vec<TensorEntry>, ArchiveError> {
    fn take<'a>(index: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8], ArchiveError> {
        let end = pos.checked_add(len).filter(|&e| e <= index.len()).ok_or(
            FormatError::CorruptStream {
                reason: "index entry extends past index end",
            },
        )?;
        let s = &index[*pos..end];
        *pos = end;
        Ok(s)
    }
    let corrupt =
        |reason: &'static str| -> ArchiveError { FormatError::CorruptStream { reason }.into() };
    // `count` and the tile counts are unverified until the loop's own
    // bounds checks have read that many entries: nothing is reserved from
    // them.
    let mut pos = 0usize;
    let mut entries = Vec::new();
    for _ in 0..count {
        let name_len =
            u16::from_le_bytes(take(index, &mut pos, 2)?.try_into().expect("2 bytes")) as usize;
        let name = std::str::from_utf8(take(index, &mut pos, name_len)?)
            .map_err(|_| corrupt("tensor name is not utf-8"))?
            .to_string();
        let elements = u64::from_le_bytes(take(index, &mut pos, 8)?.try_into().expect("8 bytes"));
        let k = u64::from_le_bytes(take(index, &mut pos, 8)?.try_into().expect("8 bytes"));
        let n = u64::from_le_bytes(take(index, &mut pos, 8)?.try_into().expect("8 bytes"));
        let head = take(index, &mut pos, 8)?;
        let (shared_exp, flags) = (head[0], head[1]);
        let stored_outliers =
            u64::from_le_bytes(take(index, &mut pos, 8)?.try_into().expect("8 bytes"));
        if k.checked_mul(n) != Some(elements) || elements > u32::MAX as u64 {
            return Err(corrupt("tensor shape disagrees with element count"));
        }
        let mut planes = [PlaneDesc {
            offset: 0,
            byte_len: 0,
            crc: 0,
        }; 6];
        for p in &mut planes {
            let d = take(index, &mut pos, 24)?;
            p.offset = u64::from_le_bytes(d[0..8].try_into().expect("8 bytes"));
            p.byte_len = u64::from_le_bytes(d[8..16].try_into().expect("8 bytes"));
            p.crc = u32::from_le_bytes(d[16..20].try_into().expect("4 bytes"));
            let end = p
                .offset
                .checked_add(p.byte_len)
                .ok_or_else(|| corrupt("plane range overflows"))?;
            if end > file_len {
                return Err(corrupt("plane extends past end of file"));
            }
        }
        if planes[4].byte_len % 4 != 0 || planes[4].byte_len / 4 != planes[5].byte_len {
            return Err(corrupt("outlier side tables disagree in length"));
        }
        let mut tables = [Vec::new(), Vec::new()];
        for table in &mut tables {
            let tile_count =
                u32::from_le_bytes(take(index, &mut pos, 4)?.try_into().expect("4 bytes")) as usize;
            for _ in 0..tile_count {
                table.push(u32::from_le_bytes(
                    take(index, &mut pos, 4)?.try_into().expect("4 bytes"),
                ));
            }
        }
        let [sval_tiles, panel_tiles] = tables;
        entries.push(TensorEntry {
            name,
            elements,
            k,
            n,
            shared_exp,
            flags,
            stored_outliers,
            planes,
            sval_tiles,
            panel_tiles,
        });
    }
    if pos != index.len() {
        return Err(corrupt("trailing bytes after last index entry"));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{available_tiers, with_tier, KernelTier};

    fn bf(x: f32) -> Bf16 {
        Bf16::from_f32(x)
    }

    fn mixed(len: usize) -> Vec<Bf16> {
        (0..len)
            .map(|i| {
                let v = ((i % 37) as f32 - 18.0) * 0.11;
                match i % 23 {
                    0 => bf(v * 1e26),
                    1 => Bf16::ZERO,
                    _ => bf(v),
                }
            })
            .collect()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "owlp-archive2-test-{}-{name}.owl2",
            std::process::id()
        ));
        p
    }

    /// Tensors with panel edges (NR ∤ n) and tile remainders, then every
    /// finite BF16 pattern as a 255×256 tensor (`Bf16` equality compares
    /// bits, so −0 and subnormals count) spanning 16 decode chunks.
    fn tensors() -> Vec<(&'static str, usize, usize, Vec<Bf16>)> {
        let mut tensors: Vec<_> = [("a", 13usize, 11usize), ("b", 64, 32), ("c", 7, 130)]
            .map(|(name, k, n)| (name, k, n, mixed(k * n)))
            .into();
        tensors.push(("finite", 255, 256, crate::bf16::all_finite().collect()));
        tensors
    }

    fn write_archive(path: &Path, tensors: &[(&str, usize, usize)]) -> ArchiveSummary {
        let mut w = ArchiveWriter::create(path).unwrap();
        for &(name, k, n) in tensors {
            let data = mixed(k * n);
            w.add_tensor_slice(name, k, n, &data).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_is_bit_identical_to_the_in_memory_path() {
        let path = temp_path("roundtrip");
        let tensors = tensors();
        let mut w = ArchiveWriter::create(&path).unwrap();
        for (name, k, n, data) in &tensors {
            w.add_tensor_slice(name, *k, *n, data).unwrap();
        }
        assert_eq!(w.finish().unwrap().tensors, 4);
        let ar = MappedArchive::open(&path).unwrap();
        assert_eq!(ar.len(), 4);
        for (name, k, n, data) in tensors {
            let enc = encode_tensor(&data, None).unwrap();
            let expect = enc.decode_packed();
            let t = ar.tensor(name).unwrap();
            assert_eq!(t.k(), k);
            assert_eq!(t.n(), n);
            assert_eq!(t.operands(), &expect, "{name}: operand planes");
            assert_eq!(
                t.operands().stored_outlier_count(),
                enc.outlier_count(),
                "{name}: stored outliers"
            );
            assert_eq!(
                t.panels().unwrap(),
                &expect.pack_panels(k, n),
                "{name}: panels"
            );
            assert_eq!(t.to_bf16_vec(), data, "{name}: lossless");
            if cfg!(all(
                unix,
                target_pointer_width = "64",
                target_endian = "little"
            )) {
                assert!(t.is_mapped(), "{name}: expected zero-copy planes");
            }
        }
        drop(ar);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn archive_bytes_depend_only_on_the_weights() {
        let tensors = tensors();
        let write = |tag: &str, from_planes: bool| -> Vec<u8> {
            let path = temp_path(tag);
            let mut w = ArchiveWriter::create(&path).unwrap();
            for (name, k, n, data) in &tensors {
                if from_planes {
                    let packed = encode_tensor(data, None).unwrap().decode_packed();
                    let panels = packed.pack_panels(*k, *n);
                    w.add_planes(name, *k, *n, &packed, &panels).unwrap();
                } else {
                    w.add_tensor_slice(name, *k, *n, data).unwrap();
                }
            }
            w.finish().unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            bytes
        };
        let oracle = with_tier(KernelTier::Scalar, || {
            owlp_par::with_threads(1, || write("oracle", false))
        });
        for &tier in available_tiers() {
            for threads in [1, 4] {
                let bytes = with_tier(tier, || {
                    owlp_par::with_threads(threads, || write("slice", false))
                });
                assert!(bytes == oracle, "{tier} at {threads} threads");
            }
        }
        assert!(write("planes", true) == oracle, "add_planes");
    }

    #[test]
    fn header_and_footer_bit_flips_give_typed_errors() {
        let path = temp_path("flips");
        write_archive(&path, &[("w", 24, 20), ("x", 9, 13)]);
        let clean = std::fs::read(&path).unwrap();
        let footer = clean.len() - FOOTER_LEN;
        let open = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            MappedArchive::open(&path)
        };
        let typed = |r: &Result<MappedArchive, ArchiveError>| {
            matches!(
                r,
                Err(ArchiveError::Format(FormatError::CorruptStream { .. }))
            )
        };
        // The index abuts the footer: every bit of either breaks a check.
        let index_off = u64::from_le_bytes(clean[footer..footer + 8].try_into().unwrap()) as usize;
        let (mut errors, mut loads) = (0, 0);
        for byte in (0..HEADER_LEN as usize).chain(index_off..clean.len()) {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                let opened = open(&bytes);
                if (8..HEADER_LEN as usize).contains(&byte) {
                    // The reserved header bytes are not read.
                    let ar = opened.unwrap_or_else(|e| panic!("byte {byte} bit {bit}: {e}"));
                    ar.verify().unwrap();
                    loads += 1;
                } else {
                    assert!(typed(&opened), "byte {byte} bit {bit}: {:?}", opened.err());
                    errors += 1;
                }
            }
        }
        // 64 header (the other 64 load), 288 footer and 3,312 index flips.
        assert_eq!((errors, loads), (352 + 3312, 64));
        // An index with a valid digest that claims u32::MAX sval tiles for
        // its first tensor: past the name, five u64 fields and six plane
        // descriptors.
        let tiles_at = index_off + 2 + "w".len() + 5 * 8 + 6 * 24;
        let mut bytes = clean.clone();
        assert_eq!(bytes[tiles_at..tiles_at + 4], 2u32.to_le_bytes());
        bytes[tiles_at..tiles_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32c_bytes(&bytes[index_off..footer]);
        bytes[footer + 28..footer + 32].copy_from_slice(&crc.to_le_bytes());
        let opened = open(&bytes);
        assert!(typed(&opened), "{:?}", opened.err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verify_scrubs_and_detects_plane_corruption() {
        let path = temp_path("scrub");
        write_archive(&path, &[("w", 40, 24)]);
        let ar = MappedArchive::open(&path).unwrap();
        let report = ar.verify().unwrap();
        assert_eq!(report.tensors, 1);
        assert_eq!(report.planes, 6);
        assert!(report.tiles > 0);
        // Corrupt one sval byte on disk: open still succeeds (index is
        // clean), the digested load and the scrub both refuse.
        let entry_off = ar.entries[0].planes[2].offset as usize;
        drop(ar);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[entry_off + 7] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let ar = MappedArchive::open(&path).unwrap();
        assert!(matches!(
            ar.tensor("w"),
            Err(ArchiveError::Digest { plane: "sval", .. })
        ));
        assert!(ar.verify().is_err());
        // The unverified path still loads (caller opted out of the check).
        assert!(ar.tensor_unverified("w").is_ok());
        drop(ar);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_and_malformed_archives_are_rejected() {
        let path = temp_path("torn");
        write_archive(&path, &[("w", 16, 16)]);
        let bytes = std::fs::read(&path).unwrap();
        let truncated = temp_path("torn-cut");
        let corrupt = |bytes: &[u8]| {
            std::fs::write(&truncated, bytes).unwrap();
            matches!(
                MappedArchive::open(&truncated),
                Err(ArchiveError::Format(FormatError::CorruptStream { .. }))
            )
        };
        assert!(corrupt(&bytes[..bytes.len() - 10]), "truncated");
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(corrupt(&bad_magic), "bad magic");
        // A flipped index byte breaks the index digest.
        let mut bad_index = bytes.clone();
        let idx = bad_index.len() - FOOTER_LEN - 4;
        bad_index[idx] ^= 1;
        assert!(corrupt(&bad_index), "flipped index byte");
        std::fs::remove_file(&truncated).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            MappedArchive::open(&temp_path("torn-missing")),
            Err(ArchiveError::Io(_))
        ));
    }

    #[test]
    fn missing_and_duplicate_tensors_error() {
        let path = temp_path("names");
        let mut w = ArchiveWriter::create(&path).unwrap();
        w.add_tensor_slice("w", 4, 4, &mixed(16)).unwrap();
        assert!(w.add_tensor_slice("w", 4, 4, &mixed(16)).is_err());
        // Rejected adds write nothing: the archive below holds only "w".
        let packed = encode_tensor(&mixed(16), None).unwrap().decode_packed();
        let panels = packed.pack_panels(4, 4);
        assert!(w.add_planes("w", 4, 4, &packed, &panels).is_err());
        assert!(matches!(
            w.add_planes("y", 2, 4, &packed, &panels),
            Err(ArchiveError::Format(FormatError::ShapeMismatch {
                expected: 8,
                actual: 16
            }))
        ));
        assert!(matches!(
            w.add_planes("y", 2, 8, &packed, &panels),
            Err(ArchiveError::Format(FormatError::CorruptStream { .. }))
        ));
        w.finish().unwrap();
        let ar = MappedArchive::open(&path).unwrap();
        assert!(matches!(
            ar.tensor("nope"),
            Err(ArchiveError::MissingTensor { .. })
        ));
        assert_eq!(ar.names().collect::<Vec<_>>(), ["w"]);
        drop(ar);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_archive_roundtrips() {
        let path = temp_path("empty");
        let summary = write_archive(&path, &[]);
        assert_eq!(summary.tensors, 0);
        let ar = MappedArchive::open(&path).unwrap();
        assert!(ar.is_empty());
        assert_eq!(ar.verify().unwrap(), VerifyReport::default());
        drop(ar);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewriting_a_mapped_path_keeps_the_live_mapping_intact() {
        let path = temp_path("rewrite-live");
        write_archive(&path, &[("w", 48, 40)]);
        let first = MappedArchive::open(&path).unwrap();
        let before = first.tensor("w").unwrap().to_bf16_vec();
        // Other tensors and a much shorter file: truncating in place would
        // pull the mapped pages out from under `first`.
        write_archive(&path, &[("x", 4, 4)]);
        first.verify().unwrap();
        assert_eq!(first.tensor("w").unwrap().to_bf16_vec(), before);
        let second = MappedArchive::open(&path).unwrap();
        assert_eq!(second.names().collect::<Vec<_>>(), ["x"]);
        drop((first, second));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_unfinished_writer_removes_its_staging_file() {
        let path = temp_path("abandoned");
        write_archive(&path, &[("w", 16, 8)]);
        let before = std::fs::read(&path).unwrap();
        let mut w = ArchiveWriter::create(&path).unwrap();
        w.add_tensor_slice("x", 4, 4, &mixed(16)).unwrap();
        let staging = w.staging.clone().unwrap();
        assert!(staging.exists());
        drop(w);
        assert!(!staging.exists());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_planes_share_the_file_not_copies() {
        let path = temp_path("zero-copy");
        write_archive(&path, &[("w", 32, 16)]);
        let ar = MappedArchive::open(&path).unwrap();
        let t = ar.tensor_unverified("w").unwrap();
        if cfg!(all(
            unix,
            target_pointer_width = "64",
            target_endian = "little"
        )) {
            let base = ar.file.bytes().as_ptr() as usize;
            let end = base + ar.file.len();
            for ptr in [
                t.operands().svals().as_ptr() as usize,
                t.operands().mags().as_ptr() as usize,
                t.panels().unwrap().data().as_ptr() as usize,
            ] {
                assert!((base..end).contains(&ptr), "plane must point into the map");
            }
            assert_eq!(t.operands().svals().as_ptr() as usize % 32, 0);
            assert_eq!(t.panels().unwrap().data().as_ptr() as usize % 32, 0);
        }
        drop((t, ar));
        std::fs::remove_file(&path).unwrap();
    }
}
