//! Content digests and the durable eviction spill format.
//!
//! # Cache key
//!
//! A cloud is identified by [`CloudKey`]: the FNV-1a 64-bit digest of its
//! exact coordinate bits (dimension and count mixed in first) paired with
//! the shard count `K`. Two byte-identical clouds always collide onto the
//! same key — that is the cache hit — and any mutation of a single
//! coordinate bit changes the digest, so a stale entry can never answer
//! for a modified cloud. `K` is part of the key because the resident
//! artifacts (plan, per-shard BVHs, local MSTs) are a function of the
//! partition, not just the points.
//!
//! # Spill format (v3, binary, checksummed)
//!
//! An evicted cloud is persisted as one checksummed binary blob
//! (`emst_datasets::io::BlobWriter` framing, magic `EMSTSP03`):
//!
//! | section | payload |
//! |---------|---------|
//! | `HEAD`  | `D` u32, shards u64, salt u32, `n` u64, points digest u64, points check u64, artifacts flag u32 |
//! | `PNTS`  | `n · D` coordinate `f32` bit patterns, row-major |
//! | `PLAN`, `LOCS`, `BNDS` | *(when the flag is set)* the [`emst_shard::ShardArtifacts`] sections |
//!
//! Every byte sits under exactly one FNV-1a section checksum, so a flipped
//! bit or a short write is detected as such — never decoded into wrong
//! points or wrong artifacts. The artifact sections make reload cheap: the
//! plan, local MSTs and merge bounds are a verified read, and only the
//! per-shard BVHs — about as cheap to rebuild as to decode — are rebuilt
//! from the verified points. Because the build *is* deterministic,
//! artifacts are best-effort — missing or corrupt artifact sections
//! degrade to a rebuild from the (verified) points, reported via
//! `SpillContents::artifacts` being `None` with
//! `SpillContents::artifact_corrupt` distinguishing "was never written"
//! from "was written and damaged".
//!
//! The header's points check is the FNV-1a 64 of the `PNTS` payload. It
//! lets [`probe_spill`] recognise a cloud's own spill even when that
//! spill's points are damaged, so storage faults never push a cloud onto
//! a salted key.
//!
//! Writes go through a temp file + rename, so a crash (or injected
//! `ENOSPC` mid-write) never leaves a half-written file under the final
//! name. All fault injection (see [`crate::fault`]) is applied to the
//! in-memory byte image before it touches the filesystem, which keeps the
//! chaos tests hermetic and deterministic.

use std::borrow::Cow;
use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

use emst_datasets::io::{fnv1a_64_extend, BlobReader, BlobWriter, ByteReader, FNV1A_64_START};
use emst_exec::ExecSpace;
use emst_geometry::Point;
use emst_shard::ShardArtifacts;

use crate::fault::{FaultKind, FaultPlan, FaultSite};

/// Magic bytes of the serve spill format, version 3 (binary, checksummed).
pub const SPILL_MAGIC: &[u8; 8] = b"EMSTSP03";

/// `HEAD` payload bytes: `D`, shards, salt, `n`, digest, points check,
/// artifacts flag.
pub(crate) const HEAD_LEN: usize = 4 + 8 + 4 + 8 + 8 + 8 + 4;

/// Identity of a resident (or spilled) cloud: content digest plus shard
/// count, plus a collision salt. See the module docs for the keying
/// scheme.
///
/// The digest is 64-bit, so distinct clouds *can* collide; the engine
/// never trusts digest equality alone (hits verify the stored points).
/// When verification finds two distinct clouds under one digest, the
/// newcomer is admitted under the next free `salt` so both stay servable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CloudKey {
    /// FNV-1a 64 digest of `(D, n, coordinate bits)`.
    pub digest: u64,
    /// Shard count the artifacts were built with.
    pub shards: usize,
    /// Collision-disambiguation salt; `0` for every key minted by
    /// digesting points, bumped only by the engine's verified-collision
    /// path.
    pub salt: u32,
}

impl CloudKey {
    /// The key `points` would normally be served under (salt `0`).
    pub(crate) fn minted(digest: u64, shards: usize) -> Self {
        Self { digest, shards, salt: 0 }
    }

    /// Test-only: a key with a chosen digest, bypassing [`digest_points`]
    /// — the seam collision tests use to alias two distinct clouds.
    #[doc(hidden)]
    pub fn forged(digest: u64, shards: usize) -> Self {
        Self::minted(digest, shards)
    }
}

impl std::fmt::Display for CloudKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}/K{}", self.digest, self.shards)?;
        if self.salt != 0 {
            write!(f, "/s{}", self.salt)?;
        }
        Ok(())
    }
}

/// FNV-1a 64 over the exact coordinate bits of `points`, with the
/// dimension and count mixed in first. Bit-exact: `-0.0` and `0.0` (and
/// different NaN payloads) digest differently, which errs on the side of a
/// rebuild rather than a false hit.
pub fn digest_points<const D: usize>(points: &[Point<D>]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(D as u64);
    mix(points.len() as u64);
    for p in points {
        for d in 0..D {
            mix(p[d].to_bits() as u64);
        }
    }
    h
}

/// Spill file of `key` inside `dir`. Salt-0 keys (the overwhelmingly
/// common case) keep the plain name; salted keys get a suffix so two
/// colliding clouds never clobber each other's spill.
pub(crate) fn spill_path(dir: &Path, key: CloudKey) -> PathBuf {
    if key.salt == 0 {
        dir.join(format!("cloud-{:016x}-k{}.spill", key.digest, key.shards))
    } else {
        dir.join(format!("cloud-{:016x}-k{}-s{}.spill", key.digest, key.shards, key.salt))
    }
}

/// A spill file read back and verified section by section.
pub(crate) struct SpillContents<const D: usize> {
    /// The cloud, in original input order (checksum-verified and
    /// re-digested against the key).
    pub points: Vec<Point<D>>,
    /// Restored artifacts, when the spill carried them intact.
    pub artifacts: Option<ShardArtifacts<D>>,
    /// True when artifact sections were written but failed verification —
    /// the reload must fall back to a rebuild, and the failure is worth
    /// counting separately from "artifacts were never spilled".
    pub artifact_corrupt: bool,
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt serve spill file: {what}"))
}

/// Serializes a spill image — header, points, then the artifact sections
/// when given — into one buffer sized exactly up front.
pub(crate) fn encode_spill<const D: usize>(
    key: CloudKey,
    points: &[Point<D>],
    artifacts: Option<&ShardArtifacts<D>>,
) -> Vec<u8> {
    let len = SPILL_MAGIC.len()
        + BlobWriter::section_len(HEAD_LEN)
        + BlobWriter::section_len(points.len() * D * 4)
        + artifacts.map_or(0, ShardArtifacts::encoded_len);
    let mut blob = BlobWriter::with_capacity(SPILL_MAGIC, len);
    blob.section_with(b"HEAD", |w| {
        w.u32(D as u32);
        w.u64(key.shards as u64);
        w.u32(key.salt);
        w.u64(points.len() as u64);
        w.u64(key.digest);
        w.u64(points_check(points));
        w.u32(u32::from(artifacts.is_some()));
    });
    blob.section_with(b"PNTS", |w| {
        for p in points {
            for d in 0..D {
                w.f32(p[d]);
            }
        }
    });
    if let Some(artifacts) = artifacts {
        artifacts.write_sections(&mut blob);
    }
    let image = blob.finish();
    debug_assert_eq!(image.len(), len, "spill image pre-size is exact");
    image
}

/// FNV-1a 64 of the `PNTS` payload `points` encode to.
fn points_check<const D: usize>(points: &[Point<D>]) -> u64 {
    points.iter().fold(FNV1A_64_START, |h, p| {
        (0..D).fold(h, |h, d| fnv1a_64_extend(h, &p[d].to_bits().to_le_bytes()))
    })
}

/// A verified `HEAD` section.
struct Head {
    n: u64,
    points_check: u64,
    has_artifacts: bool,
}

/// Opens a spill image and verifies its header against the key it was
/// looked up under, returning the reader positioned at `PNTS`.
fn decode_head<const D: usize>(bytes: &[u8], key: CloudKey) -> io::Result<(Head, BlobReader<'_>)> {
    let mut blob = BlobReader::open(bytes, SPILL_MAGIC)?;
    let mut head = ByteReader::new(blob.section(b"HEAD")?);
    let dim = head.u32()?;
    let shards = head.u64()?;
    let salt = head.u32()?;
    let n = head.u64()?;
    let digest = head.u64()?;
    let points_check = head.u64()?;
    let has_artifacts = match head.u32()? {
        0 => false,
        1 => true,
        _ => return Err(corrupt("artifacts flag")),
    };
    head.done()?;
    if dim as usize != D {
        return Err(corrupt("dimension mismatch"));
    }
    if shards != key.shards as u64 || salt != key.salt || digest != key.digest {
        return Err(corrupt("key mismatch"));
    }
    Ok((Head { n, points_check, has_artifacts }, blob))
}

/// Decodes and verifies a spill image's header and points against the
/// key it was looked up under: any damage there is an `Err`. Returns the
/// points, whether artifact sections were written, and the reader
/// positioned after `PNTS`.
fn decode_points<const D: usize>(
    bytes: &[u8],
    key: CloudKey,
) -> io::Result<(Vec<Point<D>>, bool, BlobReader<'_>)> {
    let (head, mut blob) = decode_head::<D>(bytes, key)?;
    let pnts = blob.section(b"PNTS")?;
    if head.n.checked_mul(4 * D as u64) != Some(pnts.len() as u64) {
        return Err(corrupt("points section length"));
    }
    let points: Vec<Point<D>> = pnts
        .chunks_exact(4 * D)
        .map(|row| {
            Point::new(std::array::from_fn(|d| {
                f32::from_le_bytes(row[4 * d..4 * d + 4].try_into().expect("a 4-byte slice"))
            }))
        })
        .collect();
    Ok((points, head.has_artifacts, blob))
}

/// Decodes and verifies a whole spill image, restoring the artifacts with
/// `space`. Corrupt header or points — including points that do not
/// digest to the key — are an `Err`; corrupt artifact sections only
/// degrade (points survive).
fn decode_spill<S: ExecSpace, const D: usize>(
    bytes: &[u8],
    key: CloudKey,
    space: &S,
) -> io::Result<SpillContents<D>> {
    let (points, has_artifacts, mut blob) = decode_points(bytes, key)?;
    // Checked before any artifact work: a spill is only restored for the
    // cloud its key names.
    if digest_points(&points) != key.digest {
        return Err(corrupt("points digest mismatch"));
    }
    // The artifact region is best-effort: any failure past this line
    // degrades to a rebuild instead of failing the whole reload.
    if !has_artifacts {
        let artifact_corrupt = blob.done().is_err();
        return Ok(SpillContents { points, artifacts: None, artifact_corrupt });
    }
    match ShardArtifacts::read_sections(&mut blob, space, &points) {
        // Bytes after verified artifact sections mean the frame is not
        // one we wrote: reject the file rather than guess at its layout.
        Ok(_) if blob.done().is_err() => Err(corrupt("trailing bytes after artifact sections")),
        Ok(artifacts) => {
            Ok(SpillContents { points, artifacts: Some(artifacts), artifact_corrupt: false })
        }
        Err(_) => Ok(SpillContents { points, artifacts: None, artifact_corrupt: true }),
    }
}

/// Writes the spill `image` of `key` into `dir` (created if needed), with
/// fault injection applied to the in-memory image. Injected
/// `ShortWrite`/`BitFlip` faults *succeed* — that is the point: only the
/// read-side checksums can catch them.
pub(crate) fn write_spill(
    dir: &Path,
    key: CloudKey,
    image: &[u8],
    fault: Option<&FaultPlan>,
) -> io::Result<()> {
    let mut bytes = Cow::Borrowed(image);
    if let Some(plan) = fault {
        match plan.decide(FaultSite::Write) {
            None => {}
            Some(FaultKind::Eio) => return Err(io::Error::from_raw_os_error(5)),
            Some(FaultKind::Stall(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            Some(FaultKind::ShortWrite) => {
                bytes = Cow::Borrowed(&image[..plan.position(FaultSite::Write, image.len())]);
            }
            Some(FaultKind::BitFlip) => {
                let pos = plan.position(FaultSite::Write, image.len());
                bytes.to_mut()[pos] ^= 1 << (pos % 8);
            }
            Some(FaultKind::Enospc) => {
                // Land a partial file under the *temp* name, then fail —
                // the rename never happens, so the final path stays clean.
                std::fs::create_dir_all(dir)?;
                let tmp = tmp_path(dir, key);
                let _ = std::fs::write(&tmp, &image[..image.len() / 2]);
                let _ = std::fs::remove_file(&tmp);
                return Err(io::Error::from_raw_os_error(28));
            }
        }
    }
    std::fs::create_dir_all(dir)?;
    let tmp = tmp_path(dir, key);
    let mut out = File::create(&tmp)?;
    if let Err(e) = out.write_all(&bytes).and_then(|()| out.sync_data()) {
        drop(out);
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    drop(out);
    std::fs::rename(&tmp, spill_path(dir, key))
}

fn tmp_path(dir: &Path, key: CloudKey) -> PathBuf {
    let final_name =
        spill_path(dir, key).file_name().expect("spill paths always have a file name").to_owned();
    let mut name = std::ffi::OsString::from(".tmp-");
    name.push(final_name);
    dir.join(name)
}

/// Loads `key`'s spill image with read-site faults applied. Returns
/// `None` when no spill file exists; I/O failures are `Err` with the OS
/// kind.
fn read_image(dir: &Path, key: CloudKey, fault: Option<&FaultPlan>) -> io::Result<Option<Vec<u8>>> {
    let path = spill_path(dir, key);
    let mut file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut image = Vec::new();
    file.read_to_end(&mut image)?;
    if let Some(plan) = fault {
        match plan.decide(FaultSite::Read) {
            None => {}
            Some(FaultKind::Eio) => return Err(io::Error::from_raw_os_error(5)),
            Some(FaultKind::Enospc) => return Err(io::Error::from_raw_os_error(28)),
            Some(FaultKind::Stall(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            Some(FaultKind::ShortWrite) => {
                image.truncate(plan.position(FaultSite::Read, image.len()));
            }
            Some(FaultKind::BitFlip) if !image.is_empty() => {
                let pos = plan.position(FaultSite::Read, image.len());
                image[pos] ^= 1 << (pos % 8);
            }
            Some(FaultKind::BitFlip) => {}
        }
    }
    Ok(Some(image))
}

/// Reads and verifies `key`'s spilled cloud, restoring its artifacts with
/// `space`. Returns `None` when no spill file exists; I/O failures are
/// `Err` with the OS kind, and corruption anywhere in the header or points
/// is `Err(InvalidData)` — never wrong points. Read-site faults are
/// applied to the loaded image before verification, so an injected bit
/// flip is *detected*, not served.
pub(crate) fn read_spill<S: ExecSpace, const D: usize>(
    dir: &Path,
    key: CloudKey,
    space: &S,
    fault: Option<&FaultPlan>,
) -> io::Result<Option<SpillContents<D>>> {
    read_image(dir, key, fault)?.map(|image| decode_spill(&image, key, space)).transpose()
}

/// Whose cloud a spill file holds, as told by [`probe_spill`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SpillOwner {
    /// No spill file under the key.
    Absent,
    /// The probed cloud's own spill.
    Same,
    /// Another cloud's spill.
    Other,
}

/// Tells whose cloud `key`'s spill file holds, reading no further than
/// its points: verified points are compared bit for bit with `points`;
/// damaged ones fall back to the header's count and points check. Only an
/// unreadable file or a damaged header is an `Err` — the owner cannot be
/// told. Artifact sections are neither checked nor restored.
pub(crate) fn probe_spill<const D: usize>(
    dir: &Path,
    key: CloudKey,
    points: &[Point<D>],
    fault: Option<&FaultPlan>,
) -> io::Result<SpillOwner> {
    let Some(image) = read_image(dir, key, fault)? else {
        return Ok(SpillOwner::Absent);
    };
    let (head, mut blob) = decode_head::<D>(&image, key)?;
    let same = match blob.section(b"PNTS") {
        Ok(pnts) => {
            let coords = points.iter().flat_map(|p| (0..D).map(move |d| p[d].to_bits()));
            pnts.len() == points.len() * D * 4
                && pnts.chunks_exact(4).zip(coords).all(|(c, x)| c == x.to_le_bytes())
        }
        Err(_) => head.n == points.len() as u64 && head.points_check == points_check(points),
    };
    Ok(if same { SpillOwner::Same } else { SpillOwner::Other })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_exec::Serial;
    use proptest::prelude::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("emst-serve-spill-{tag}-{}", std::process::id()))
    }

    fn sample_points() -> Vec<Point<3>> {
        (0..100).map(|i| Point::new([i as f32 * 0.1, -(i as f32), 1.0 / (i + 1) as f32])).collect()
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let pts = vec![Point::new([1.0f32, 2.0]), Point::new([3.0, 4.0])];
        let d = digest_points(&pts);
        assert_eq!(d, digest_points(&pts.clone()));
        let mut mutated = pts.clone();
        mutated[1] = Point::new([3.0, 4.0000005]);
        assert_ne!(d, digest_points(&mutated));
        // Order matters (the cache is keyed on the exact input sequence).
        let swapped = vec![pts[1], pts[0]];
        assert_ne!(d, digest_points(&swapped));
        // Signed zero is a different bit pattern.
        assert_ne!(
            digest_points(&[Point::new([0.0f32, 0.0])]),
            digest_points(&[Point::new([-0.0f32, 0.0])])
        );
    }

    /// The error of a read that must fail (`SpillContents` has no `Debug`).
    fn err<T>(r: io::Result<T>) -> io::Error {
        r.err().expect("the read must fail")
    }

    fn sample_artifacts(pts: &[Point<3>], shards: usize) -> ShardArtifacts<3> {
        ShardArtifacts::build(&Serial, pts, &emst_shard::ShardConfig::new(shards))
    }

    /// Byte offset where the artifact region starts: magic, `HEAD`, `PNTS`.
    fn artifacts_at(n: usize, dim: usize) -> usize {
        SPILL_MAGIC.len() + BlobWriter::section_len(HEAD_LEN) + BlobWriter::section_len(n * dim * 4)
    }

    #[test]
    fn spill_round_trips_exactly_with_and_without_artifacts() {
        let dir = temp_dir("roundtrip");
        let pts = sample_points();
        let key = CloudKey::minted(digest_points(&pts), 4);
        let art = sample_artifacts(&pts, 4);
        write_spill(&dir, key, &encode_spill(key, &pts, Some(&art)), None).unwrap();
        let back = read_spill::<_, 3>(&dir, key, &Serial, None).unwrap().unwrap();
        assert_eq!(back.points, pts);
        assert_eq!(digest_points(&back.points), key.digest);
        let restored = back.artifacts.expect("artifacts restore");
        assert!(!back.artifact_corrupt);
        assert_eq!(restored.build_work().iterations, 0, "a restore does no build work");
        let merged = |a: &ShardArtifacts<3>| a.merge(&Serial, Default::default()).edges;
        assert_eq!(merged(&restored), merged(&art));
        // The probe recognises the points without touching the artifacts.
        assert_eq!(probe_spill(&dir, key, &pts, None).unwrap(), SpillOwner::Same);
        // Without artifacts: clean reload, no corruption flag.
        write_spill(&dir, key, &encode_spill(key, &pts, None), None).unwrap();
        let back = read_spill::<_, 3>(&dir, key, &Serial, None).unwrap().unwrap();
        assert_eq!(back.points, pts);
        assert!(back.artifacts.is_none() && !back.artifact_corrupt);
        let missing = CloudKey::minted(1, 4);
        assert!(read_spill::<_, 3>(&dir, missing, &Serial, None).unwrap().is_none());
        assert_eq!(probe_spill(&dir, missing, &pts, None).unwrap(), SpillOwner::Absent);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_detected_never_decoded() {
        let dir = temp_dir("corrupt");
        let pts = sample_points();
        let key = CloudKey::minted(digest_points(&pts), 2);
        write_spill(&dir, key, &encode_spill(key, &pts, Some(&sample_artifacts(&pts, 2))), None)
            .unwrap();
        let path = spill_path(&dir, key);
        let pristine = std::fs::read(&path).unwrap();
        let read = || read_spill::<_, 3>(&dir, key, &Serial, None);
        // The artifact sections close the file: a flip inside the last
        // section's payload must only degrade.
        let arts_payload_pos = pristine.len() - 8 - 20;
        let mut damaged = pristine.clone();
        damaged[arts_payload_pos] ^= 0x10;
        std::fs::write(&path, &damaged).unwrap();
        let back = read().unwrap().unwrap();
        assert_eq!(back.points, pts, "points survive artifact corruption");
        assert!(back.artifacts.is_none() && back.artifact_corrupt);
        // The probe never looks past the points.
        assert_eq!(probe_spill(&dir, key, &pts, None).unwrap(), SpillOwner::Same);
        // Any flip in the header or points sections is a typed error.
        let pnts_mid = (artifacts_at(pts.len(), 3) + artifacts_at(0, 3)) / 2;
        for pos in [9usize, 30, pnts_mid] {
            let mut damaged = pristine.clone();
            damaged[pos] ^= 0x01;
            std::fs::write(&path, &damaged).unwrap();
            assert_eq!(err(read()).kind(), io::ErrorKind::InvalidData, "flip at {pos}");
        }
        // Truncation at every prefix length is an error, never a panic.
        for cut in 0..pristine.len().min(64) {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(read().is_err(), "cut at {cut}");
        }
        // A truncation that only clips the trailing artifact sections
        // degrades (points intact, artifacts dropped) instead of failing
        // the reload — even one that removes them entirely, because the
        // header records that they were written.
        for cut in [pristine.len() - 13, artifacts_at(pts.len(), 3)] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let back = read().unwrap().unwrap();
            assert_eq!(back.points, pts);
            assert!(back.artifacts.is_none() && back.artifact_corrupt, "cut at {cut}");
        }
        // Trailing garbage after the artifact sections is frame corruption.
        let mut padded = pristine.clone();
        padded.extend_from_slice(b"extra");
        std::fs::write(&path, &padded).unwrap();
        assert_eq!(err(read()).kind(), io::ErrorKind::InvalidData);
        // A spill written under one key never decodes under another.
        std::fs::write(&path, &pristine).unwrap();
        let foreign = CloudKey { digest: key.digest ^ 1, ..key };
        std::fs::write(spill_path(&dir, foreign), &pristine).unwrap();
        assert!(read_spill::<_, 3>(&dir, foreign, &Serial, None).is_err());
        assert!(probe_spill(&dir, foreign, &pts, None).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Damaged points do not hide whose spill a file is: the header's
    /// count and points check still tell the cloud's own spill from
    /// another cloud's. Only a damaged header leaves the owner unknown.
    #[test]
    fn probe_tells_owners_apart_through_damaged_points() {
        let dir = temp_dir("probe");
        let pts = sample_points();
        let mut other = pts.clone();
        other[50] = Point::new([9.0, 9.0, 9.0]);
        let key = CloudKey::minted(digest_points(&pts), 2);
        let path = spill_path(&dir, key);
        write_spill(&dir, key, &encode_spill(key, &pts, None), None).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let pnts_at = SPILL_MAGIC.len() + BlobWriter::section_len(HEAD_LEN);
        let mut flipped = pristine.clone();
        flipped[pnts_at + 40] ^= 0x04;
        for damaged in [flipped, pristine[..pnts_at + 100].to_vec(), pristine[..pnts_at].to_vec()] {
            std::fs::write(&path, &damaged).unwrap();
            assert!(read_spill::<_, 3>(&dir, key, &Serial, None).is_err(), "points are damaged");
            assert_eq!(probe_spill(&dir, key, &pts, None).unwrap(), SpillOwner::Same);
            assert_eq!(probe_spill(&dir, key, &other, None).unwrap(), SpillOwner::Other);
            assert_eq!(probe_spill(&dir, key, &pts[1..], None).unwrap(), SpillOwner::Other);
        }
        for cut in [pnts_at - 9, 20] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(probe_spill(&dir, key, &pts, None).is_err(), "header cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_faults_error_or_corrupt_detectably() {
        use crate::fault::{FaultKind, FaultPlan, FaultSite};
        let dir = temp_dir("faults");
        let pts = sample_points();
        let key = CloudKey::minted(digest_points(&pts), 2);
        let image = encode_spill(key, &pts, None);
        // Write-side EIO: the error surfaces and no file lands.
        let plan = FaultPlan::new(1).with_rule(FaultSite::Write, FaultKind::Eio, 1.0);
        let e = write_spill(&dir, key, &image, Some(&plan)).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(5));
        assert!(!spill_path(&dir, key).exists());
        // Write-side ENOSPC: errors, and the final path is never created.
        let plan = FaultPlan::new(1).with_rule(FaultSite::Write, FaultKind::Enospc, 1.0);
        let e = write_spill(&dir, key, &image, Some(&plan)).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(28));
        assert!(!spill_path(&dir, key).exists());
        // Silent write corruption: the write *succeeds*; the read catches it.
        for kind in [FaultKind::ShortWrite, FaultKind::BitFlip] {
            let plan = FaultPlan::new(9).with_rule(FaultSite::Write, kind, 1.0);
            write_spill(&dir, key, &image, Some(&plan)).unwrap();
            match read_spill::<_, 3>(&dir, key, &Serial, None) {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{kind:?}"),
                Ok(back) => {
                    // A flip can land in the (best-effort) artifact area
                    // only when artifacts exist; without them it must fail.
                    panic!("{kind:?} went undetected: {} points", back.unwrap().points.len())
                }
            }
        }
        // The injected faults damaged copies, never the caller's image.
        assert_eq!(image, encode_spill(key, &pts, None));
        // Read-side bit flip over a pristine file: detected on read.
        write_spill(&dir, key, &image, None).unwrap();
        let plan = FaultPlan::new(3).with_rule(FaultSite::Read, FaultKind::BitFlip, 1.0);
        let e = err(read_spill::<_, 3>(&dir, key, &Serial, Some(&plan)));
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        // Stall: slow but clean.
        let plan = FaultPlan::new(3).with_rule(FaultSite::Read, FaultKind::Stall(1), 1.0);
        let back = read_spill::<_, 3>(&dir, key, &Serial, Some(&plan)).unwrap().unwrap();
        assert_eq!(back.points, pts);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Peak heap bytes a spill decode may hold, as a multiple of the
    /// image it decodes (restored BVHs included).
    const DECODE_ALLOC_BOUND: usize = 8;

    /// One pristine artifact-bearing spill image, shared by the fuzz cases.
    struct Fixture {
        points: Vec<Point<3>>,
        key: CloudKey,
        image: Vec<u8>,
        /// Offset of every section's length field, in file order.
        len_fields: Vec<usize>,
    }

    fn fuzz_fixture() -> &'static Fixture {
        static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let points: Vec<Point<3>> = (0..300)
                .map(|i| {
                    let t = i as f32;
                    Point::new([(t * 0.37).sin(), (t * 0.11).cos(), (t * 0.05).fract()])
                })
                .collect();
            let key = CloudKey::minted(digest_points(&points), 4);
            let image = encode_spill(key, &points, Some(&sample_artifacts(&points, 4)));
            let mut len_fields = vec![];
            let mut at = SPILL_MAGIC.len();
            while at < image.len() {
                len_fields.push(at + 4);
                let len = u64::from_le_bytes(image[at + 4..at + 12].try_into().unwrap());
                at += BlobWriter::section_len(len as usize);
            }
            assert_eq!(at, image.len());
            assert_eq!(len_fields.len(), 5, "HEAD, PNTS, PLAN, LOCS, BNDS");
            Fixture { points, key, image, len_fields }
        })
    }

    #[test]
    fn pristine_decode_stays_within_the_allocation_bound() {
        let Fixture { points, key, image, .. } = fuzz_fixture();
        let (back, peak) = alloc_probe::peak_during(|| decode_spill::<_, 3>(image, *key, &Serial));
        let back = back.unwrap();
        assert!(back.artifacts.is_some() && back.points == *points);
        assert!(peak <= DECODE_ALLOC_BOUND * image.len(), "peak {peak} B for {} B", image.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random truncation, bit flips and inflated section lengths:
        /// damage to `HEAD`/`PNTS` is `InvalidData`, damage anywhere in
        /// the artifact region degrades to a counted rebuild (verified
        /// points, no artifacts, `artifact_corrupt`), and no decode
        /// panics or allocates past a fixed multiple of the image.
        #[test]
        fn damaged_spill_images_error_or_degrade(
            kind in 0u32..3,
            at in 0usize..1 << 30,
            bit in 0u32..8,
            field in 0usize..5,
            inflate in 1u64..u64::MAX,
        ) {
            let Fixture { points, key, image: pristine, len_fields } = fuzz_fixture();
            let mut image = pristine.clone();
            let damaged_at = match kind {
                0 => {
                    let cut = at % image.len();
                    image.truncate(cut);
                    cut
                }
                1 => {
                    let pos = at % image.len();
                    image[pos] ^= 1 << bit;
                    pos
                }
                _ => {
                    let f = len_fields[field];
                    let len = u64::from_le_bytes(image[f..f + 8].try_into().unwrap());
                    image[f..f + 8].copy_from_slice(&len.saturating_add(inflate).to_le_bytes());
                    f
                }
            };
            let (decoded, peak) =
                alloc_probe::peak_during(|| decode_spill::<_, 3>(&image, *key, &Serial));
            prop_assert!(
                peak <= DECODE_ALLOC_BOUND * pristine.len(),
                "peak {peak} B for a {} B image", pristine.len()
            );
            if damaged_at < artifacts_at(points.len(), 3) {
                prop_assert_eq!(err(decoded).kind(), io::ErrorKind::InvalidData);
            } else {
                let back = decoded.expect("artifact damage must only degrade");
                prop_assert!(back.points == *points);
                prop_assert!(back.artifacts.is_none() && back.artifact_corrupt);
            }
        }
    }

    /// A per-thread heap accounting allocator, so a test can bound what
    /// one decode allocates while other tests run on other threads.
    mod alloc_probe {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static LIVE: Cell<isize> = const { Cell::new(0) };
            static PEAK: Cell<isize> = const { Cell::new(0) };
        }

        fn track(delta: isize) {
            let _ = LIVE.try_with(|live| {
                let now = live.get() + delta;
                live.set(now);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
            });
        }

        struct Counting;

        // SAFETY: every method forwards its arguments unchanged to the
        // system allocator, so `Counting` upholds exactly the contract
        // `System` does; the bookkeeping touches only `Cell`s in
        // const-initialized thread-locals, which never allocate.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                track(layout.size() as isize);
                // SAFETY: the caller's `alloc` contract, passed through.
                unsafe { System.alloc(layout) }
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                track(layout.size() as isize);
                // SAFETY: the caller's `alloc_zeroed` contract, passed through.
                unsafe { System.alloc_zeroed(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                track(-(layout.size() as isize));
                // SAFETY: `ptr` came from this allocator, i.e. from `System`,
                // with this `layout` — the caller's `dealloc` contract.
                unsafe { System.dealloc(ptr, layout) }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                track(new_size as isize - layout.size() as isize);
                // SAFETY: the caller's `realloc` contract, passed through;
                // `ptr` came from `System` via this allocator.
                unsafe { System.realloc(ptr, layout, new_size) }
            }
        }

        #[global_allocator]
        static COUNTING: Counting = Counting;

        /// Runs `f`, returning its value and the peak bytes this thread
        /// held above its level at entry.
        pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
            let base = LIVE.with(Cell::get);
            PEAK.with(|peak| peak.set(base));
            let out = f();
            (out, (PEAK.with(Cell::get) - base).max(0) as usize)
        }
    }
}
