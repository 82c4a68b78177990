//! On-disk encodings of REGIONs — the subject of Figure 4.
//!
//! Section 4.2 compares, per REGION, the stored size under:
//!
//! * **naive** — each run as two long integers (4 + 4 bytes per run);
//! * **elias** — the delta view (run and gap lengths along the curve),
//!   each length Elias-γ coded;
//! * **oblong octant** / **octant** — one packed 4-byte `<id, rank>`
//!   z-value per block ("the two components can be packed into 4 bytes
//!   for grids as large as 512x512x512").
//!
//! All four are implemented behind [`RegionCodec`], producing
//! self-describing byte strings that round-trip through
//! [`RegionCodec::decode`].  These byte strings are exactly what the LFM
//! stores in a REGION long field.  A fifth, [`RegionCodec::K3Tree`], is
//! the one *queryable* layout ([`crate::compressed`]); its bytes are
//! written by [`RegionCodec::encode_into`] alone.  Tag 4 is retired: it
//! is [`RegionEncodeError::BadTag`] like any unknown tag.

#![warn(clippy::indexing_slicing)]

use crate::geometry::GridGeometry;
use crate::octant::{Octant, OctantKind};
use crate::region::Region;
use crate::run::Run;
use qbism_coding::{k3tree, BitReader, BitWriter, CodingError, EliasGamma, IntCodec, K3Cursor};
use qbism_sfc::CurveKind;

/// Magic number prefix of every encoded REGION ("QR").
const MAGIC: u16 = 0x5152;
/// Rank field width in packed octant words.
const RANK_BITS: u32 = 5;
/// Bytes before every payload: magic 2 + tag 1 + kind 1 + dims 1 +
/// bits 1 + count 4.
const HEADER_LEN: usize = 10;

/// The four REGION storage formats compared in the paper, plus the
/// *queryable* one added for compressed-domain execution (open it via
/// [`crate::compressed::open_k3`] to merge without decoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionCodec {
    /// 8 bytes per run: `<start, end>` as two little-endian `u32`s.
    Naive,
    /// Elias-γ coded delta lengths.
    Elias,
    /// Packed 4-byte `<id, rank>` per block.
    Octant(OctantKind),
    /// k³ directory over delta+varint run-block leaves — the queryable
    /// layout ([`qbism_coding::k3tree`]).
    K3Tree,
}

impl RegionCodec {
    /// The paper's codecs, in the order of the Figure 4 ratio list.
    /// Deliberately excludes the queryable layout so the deterministic
    /// tablegen/fig4 output is unchanged.
    pub const ALL: [RegionCodec; 4] = [
        RegionCodec::Elias,
        RegionCodec::Naive,
        RegionCodec::Octant(OctantKind::Oblong),
        RegionCodec::Octant(OctantKind::Cubic),
    ];

    /// Name used in benchmark tables (`h-run-elias`, `h-run-naive`,
    /// `oblong-octant`, `octant` in the paper's vocabulary, minus the
    /// curve prefix which [`GridGeometry`] carries).
    pub fn name(&self) -> &'static str {
        match self {
            RegionCodec::Naive => "run-naive",
            RegionCodec::Elias => "run-elias",
            RegionCodec::Octant(OctantKind::Oblong) => "oblong-octant",
            RegionCodec::Octant(OctantKind::Cubic) => "octant",
            RegionCodec::K3Tree => "k3-tree",
        }
    }

    pub(crate) fn tag(&self) -> u8 {
        match self {
            RegionCodec::Naive => 0,
            RegionCodec::Elias => 1,
            RegionCodec::Octant(OctantKind::Oblong) => 2,
            RegionCodec::Octant(OctantKind::Cubic) => 3,
            RegionCodec::K3Tree => 5,
        }
    }

    fn from_tag(tag: u8) -> Option<RegionCodec> {
        Some(match tag {
            0 => RegionCodec::Naive,
            1 => RegionCodec::Elias,
            2 => RegionCodec::Octant(OctantKind::Oblong),
            3 => RegionCodec::Octant(OctantKind::Cubic),
            5 => RegionCodec::K3Tree,
            _ => return None,
        })
    }

    /// Encodes a region into a self-describing byte string.
    pub fn encode(&self, region: &Region) -> Result<Vec<u8>, RegionEncodeError> {
        let mut out = Vec::new();
        self.encode_into(region, &mut out).map(|()| out)
    }

    /// Appends the encoding [`RegionCodec::encode`] returns to `out`, so
    /// a REGION embedded in a larger value is written in place.  A codec
    /// the grid is too wide for is refused before `out` is touched; a
    /// payload error can leave a partial encoding appended.
    pub fn encode_into(&self, region: &Region, out: &mut Vec<u8>) -> Result<(), RegionEncodeError> {
        let geom = region.geometry();
        check_width(*self, geom)?;
        // The naive arm's size is known up front and band and structure
        // REGIONs take a little over two bytes a run as k³: one
        // allocation, not a doubling per few runs.
        let payload = match self {
            RegionCodec::Naive => 8 * region.run_count(),
            RegionCodec::K3Tree => 2 + 5 * region.run_count() / 2,
            _ => 0,
        };
        out.reserve(HEADER_LEN + payload);
        match self {
            RegionCodec::Naive => {
                let runs = region.runs();
                self.write_header(geom, runs.len(), out);
                for r in runs {
                    out.extend_from_slice(&(r.start as u32).to_le_bytes());
                    out.extend_from_slice(&(r.end as u32).to_le_bytes());
                }
            }
            RegionCodec::Elias => {
                let runs = region.runs();
                self.write_header(geom, runs.len(), out);
                let mut w = BitWriter::new();
                if let Some(first) = runs.first() {
                    // first start may be 0; shift into the positive domain.
                    EliasGamma.encode(&mut w, first.start + 1)?;
                    EliasGamma.encode(&mut w, first.len())?;
                    for (prev, r) in runs.iter().zip(runs.iter().skip(1)) {
                        EliasGamma.encode(&mut w, r.start - prev.end - 1)?;
                        EliasGamma.encode(&mut w, r.len())?;
                    }
                }
                out.extend_from_slice(&w.finish());
            }
            RegionCodec::Octant(kind) => {
                let octs = region.octants(*kind);
                self.write_header(geom, octs.len(), out);
                for o in &octs {
                    let packed = ((o.id as u32) << RANK_BITS) | o.rank;
                    out.extend_from_slice(&packed.to_le_bytes());
                }
            }
            RegionCodec::K3Tree => {
                self.write_header(geom, region.run_count(), out);
                let mut k3 = k3tree::Encoder::new(out, geom.dims() * geom.bits())?;
                for r in region.runs() {
                    k3.push(out, r.start, r.end)?;
                }
                k3.finish(out);
            }
        }
        Ok(())
    }

    /// Appends the fixed header every encoding starts with: magic, codec
    /// and curve tags, dims, bits, and the entry count (the last four of
    /// its [`HEADER_LEN`] bytes).
    fn write_header(&self, geom: GridGeometry, count: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&[self.tag(), kind_tag(geom.kind()), geom.dims() as u8]);
        out.push(geom.bits() as u8);
        out.extend_from_slice(&(count as u32).to_le_bytes());
    }

    /// Size in bytes the encoding would occupy.
    ///
    /// Figure 4 measures thousands of `(REGION, codec)` pairs, so the
    /// paper's four codecs are sized without building their byte
    /// strings; the k³ size is the length of the k³ encoding itself.
    pub fn encoded_len(&self, region: &Region) -> Result<usize, RegionEncodeError> {
        check_width(*self, region.geometry())?;
        Ok(match self {
            RegionCodec::Naive => HEADER_LEN + region.run_count() * 8,
            RegionCodec::Elias => {
                let mut bits = 0u64;
                if let Some(first) = region.runs().first() {
                    bits += EliasGamma.code_len(first.start + 1)?;
                    for d in region.delta_lengths() {
                        bits += EliasGamma.code_len(d)?;
                    }
                }
                HEADER_LEN + (bits as usize).div_ceil(8)
            }
            RegionCodec::Octant(kind) => HEADER_LEN + region.octant_count(*kind) * 4,
            RegionCodec::K3Tree => self.encode(region)?.len(),
        })
    }

    /// Payload size (bytes past the fixed header) — the quantity the
    /// paper's Figure 4 compares, uncontaminated by our header choice.
    pub fn payload_len(&self, region: &Region) -> Result<usize, RegionEncodeError> {
        Ok(self.encoded_len(region)? - HEADER_LEN)
    }

    /// The codec, grid and entry count (runs, or octants for the
    /// octant codecs) an encoded REGION's header names, with nothing
    /// past the header read.
    pub fn header(bytes: &[u8]) -> Result<(RegionCodec, GridGeometry, usize), RegionEncodeError> {
        let (codec, geom, count, _) = split_header(bytes)?;
        Ok((codec, geom, count))
    }

    /// Decodes a byte string produced by any [`RegionCodec`].
    ///
    /// The codec is read from the byte string itself; `self` is not
    /// consulted (call via [`RegionCodec::decode`] as an associated-style
    /// helper or any variant).
    pub fn decode(bytes: &[u8]) -> Result<Region, RegionEncodeError> {
        let (codec, geom, count, body) = split_header(bytes)?;
        match codec {
            RegionCodec::Naive => {
                let (payload, _) =
                    body.split_at_checked(count * 8).ok_or(RegionEncodeError::Truncated)?;
                let mut runs = Vec::with_capacity(count);
                for pair in payload.chunks_exact(8) {
                    let (Some(s), Some(e)) = (le_u32(pair), pair.get(4..).and_then(le_u32)) else {
                        return Err(RegionEncodeError::Truncated);
                    };
                    if e < s {
                        return Err(RegionEncodeError::Corrupt("inverted run"));
                    }
                    runs.push(Run::new(u64::from(s), u64::from(e)));
                }
                Region::from_stored_runs(geom, runs)
            }
            RegionCodec::Elias => {
                // An untrusted count must not drive allocation: every run
                // costs at least 2 payload bits (one γ codeword per run
                // length plus the start/gap codeword), so any count beyond
                // the body's bit budget is corrupt.
                if count as u64 > (body.len() as u64) * 8 {
                    return Err(RegionEncodeError::Truncated);
                }
                let mut r = BitReader::new(body);
                let mut runs = Vec::with_capacity(count);
                if count > 0 {
                    // γ codewords reach 2⁶⁴−1: a gap or length from the
                    // device must not wrap a run's bounds.
                    let overflow = || RegionEncodeError::Corrupt("run bounds overflow");
                    let mut start = EliasGamma.decode(&mut r)? - 1;
                    for i in 0..count {
                        if i > 0 {
                            let gap = EliasGamma.decode(&mut r)?;
                            start = start.checked_add(gap).ok_or_else(overflow)?;
                        }
                        let len = EliasGamma.decode(&mut r)?;
                        let end = start.checked_add(len - 1).ok_or_else(overflow)?;
                        runs.push(Run::new(start, end));
                        start = end.checked_add(1).ok_or_else(overflow)?;
                    }
                }
                Region::from_stored_runs(geom, runs)
            }
            RegionCodec::Octant(_) => {
                let (payload, _) =
                    body.split_at_checked(count * 4).ok_or(RegionEncodeError::Truncated)?;
                let mut octs = Vec::with_capacity(count);
                for word in payload.chunks_exact(4) {
                    let packed = le_u32(word).ok_or(RegionEncodeError::Truncated)?;
                    let rank = packed & ((1 << RANK_BITS) - 1);
                    let id = u64::from(packed >> RANK_BITS);
                    if rank as u64 > 63 || id % (1u64 << rank) != 0 {
                        return Err(RegionEncodeError::Corrupt("misaligned octant"));
                    }
                    octs.push(Octant::new(id, rank));
                }
                let runs: Vec<Run> = octs.iter().map(Octant::as_run).collect();
                Region::from_stored_runs(geom, runs)
            }
            RegionCodec::K3Tree => {
                // The decode-everything path: drain the cursor a leaf at
                // a time (kernels merge over the cursor instead).
                let cursor = K3Cursor::new(body)?;
                // The header's count, unless the payload cannot hold it.
                let mut runs = Vec::with_capacity(count.min(cursor.runs_hint()));
                cursor.drain_blocks(|block| {
                    runs.extend(block.iter().map(|&(start, end)| Run::new(start, end)))
                })?;
                if runs.len() != count {
                    return Err(RegionEncodeError::Corrupt("run count mismatch"));
                }
                Region::from_stored_runs(geom, runs)
            }
        }
    }
}

/// Splits an encoded REGION into `(codec, geometry, run count, body)`
/// without touching the payload — the shared header parse behind
/// [`RegionCodec::decode`] and [`crate::compressed::open_k3`].
pub(crate) fn split_header(
    bytes: &[u8],
) -> Result<(RegionCodec, GridGeometry, usize, &[u8]), RegionEncodeError> {
    let (header, body) =
        bytes.split_first_chunk::<HEADER_LEN>().ok_or(RegionEncodeError::Truncated)?;
    let [m0, m1, codec, kind, dims, bits, c0, c1, c2, c3] = *header;
    let magic = u16::from_le_bytes([m0, m1]);
    if magic != MAGIC {
        return Err(RegionEncodeError::BadMagic(magic));
    }
    let codec = RegionCodec::from_tag(codec).ok_or(RegionEncodeError::BadTag(codec))?;
    let kind = kind_from_tag(kind).ok_or(RegionEncodeError::BadTag(kind))?;
    let (dims, bits) = (u32::from(dims), u32::from(bits));
    if dims == 0 || bits == 0 || dims * bits > qbism_sfc::MAX_INDEX_BITS {
        return Err(RegionEncodeError::BadGeometry { dims, bits });
    }
    let geom = GridGeometry::new(kind, dims, bits);
    let count = u32::from_le_bytes([c0, c1, c2, c3]) as usize;
    Ok((codec, geom, count, body))
}

fn check_width(codec: RegionCodec, geom: GridGeometry) -> Result<(), RegionEncodeError> {
    let id_bits = geom.dims() * geom.bits();
    let limit = match codec {
        RegionCodec::Naive | RegionCodec::Elias | RegionCodec::K3Tree => 32,
        RegionCodec::Octant(_) => 32 - RANK_BITS,
    };
    if id_bits > limit {
        Err(RegionEncodeError::IdTooWide { id_bits, limit })
    } else {
        Ok(())
    }
}

fn kind_tag(kind: CurveKind) -> u8 {
    match kind {
        CurveKind::Hilbert => 0,
        CurveKind::Morton => 1,
        CurveKind::Scanline => 2,
    }
}

fn kind_from_tag(tag: u8) -> Option<CurveKind> {
    Some(match tag {
        0 => CurveKind::Hilbert,
        1 => CurveKind::Morton,
        2 => CurveKind::Scanline,
        _ => return None,
    })
}

/// Errors from REGION encoding and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionEncodeError {
    /// The grid's ids do not fit the codec's fixed-width words.
    IdTooWide {
        /// Bits required by the grid's ids.
        id_bits: u32,
        /// Bits the codec can store.
        limit: u32,
    },
    /// The byte string ended early.
    Truncated,
    /// Unrecognized magic number.
    BadMagic(u16),
    /// Unrecognized codec or curve tag.
    BadTag(u8),
    /// Geometry fields are invalid.
    BadGeometry {
        /// Stored dims.
        dims: u32,
        /// Stored bits.
        bits: u32,
    },
    /// Structurally invalid payload.
    Corrupt(&'static str),
    /// Underlying bit-level failure.
    Coding(CodingError),
}

impl From<CodingError> for RegionEncodeError {
    fn from(e: CodingError) -> Self {
        RegionEncodeError::Coding(e)
    }
}

impl std::fmt::Display for RegionEncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionEncodeError::IdTooWide { id_bits, limit } => {
                write!(f, "grid ids need {id_bits} bits but the codec stores at most {limit}")
            }
            RegionEncodeError::Truncated => write!(f, "encoded region is truncated"),
            RegionEncodeError::BadMagic(m) => write!(f, "bad region magic {m:#06x}"),
            RegionEncodeError::BadTag(t) => write!(f, "unknown codec/curve tag {t}"),
            RegionEncodeError::BadGeometry { dims, bits } => {
                write!(f, "invalid stored geometry: dims={dims} bits={bits}")
            }
            RegionEncodeError::Corrupt(what) => write!(f, "corrupt region payload: {what}"),
            RegionEncodeError::Coding(e) => write!(f, "bit-level failure: {e}"),
        }
    }
}

impl std::error::Error for RegionEncodeError {}

/// Little-endian u32 at the head of `bytes`, `None` when fewer than
/// four remain.
fn le_u32(bytes: &[u8]) -> Option<u32> {
    bytes.first_chunk().copied().map(u32::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The decoder's former tail, kept as the oracle of the single
    /// sweep: a bounds pass, then `from_runs`' own bounds assert, sort
    /// and fuse into a second list.
    fn build_five_pass(geom: GridGeometry, runs: Vec<Run>) -> Result<Region, RegionEncodeError> {
        let cells = geom.cell_count();
        if runs.iter().any(|r| r.end >= cells) {
            return Err(RegionEncodeError::Corrupt("run exceeds grid"));
        }
        Ok(Region::from_runs(geom, runs))
    }

    /// Raw naive bytes of an arbitrary run list (the encoder only ever
    /// writes canonical ones).
    fn naive_bytes(geom: GridGeometry, runs: &[Run]) -> Vec<u8> {
        let mut bytes = RegionCodec::Naive.encode(&Region::empty(geom)).unwrap();
        bytes.truncate(6);
        bytes.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        for r in runs {
            bytes.extend_from_slice(&(r.start as u32).to_le_bytes());
            bytes.extend_from_slice(&(r.end as u32).to_le_bytes());
        }
        bytes
    }

    fn paper_region_z() -> Region {
        let g = GridGeometry::new(CurveKind::Morton, 2, 2);
        Region::from_ids(g, vec![1, 4, 5, 6, 7, 12, 13])
    }

    #[test]
    fn naive_costs_eight_bytes_per_run() {
        // "store the starting and ending h-ids each as long integers
        //  (4+4 bytes per run) … this method would store 1 run in 8 bytes"
        let h = paper_region_z().to_curve(CurveKind::Hilbert);
        assert_eq!(h.run_count(), 1);
        assert_eq!(RegionCodec::Naive.payload_len(&h).unwrap(), 8);
        let z = paper_region_z();
        assert_eq!(RegionCodec::Naive.payload_len(&z).unwrap(), 24);
    }

    #[test]
    fn octant_costs_four_bytes_per_block() {
        let z = paper_region_z();
        assert_eq!(RegionCodec::Octant(OctantKind::Cubic).payload_len(&z).unwrap(), 16);
        assert_eq!(RegionCodec::Octant(OctantKind::Oblong).payload_len(&z).unwrap(), 12);
    }

    #[test]
    fn elias_payload_matches_gamma_lengths() {
        // Hilbert form: 1 run <3,9> -> gamma(3+1) + gamma(7) = 5 + 5 bits
        let h = paper_region_z().to_curve(CurveKind::Hilbert);
        assert_eq!(RegionCodec::Elias.payload_len(&h).unwrap(), (5usize + 5).div_ceil(8));
    }

    #[test]
    fn all_codecs_roundtrip_paper_region() {
        for codec in RegionCodec::ALL {
            for kind in [CurveKind::Morton, CurveKind::Hilbert] {
                let r = paper_region_z().to_curve(kind);
                let bytes = codec.encode(&r).unwrap();
                assert_eq!(bytes.len(), codec.encoded_len(&r).unwrap(), "{}", codec.name());
                let back = RegionCodec::decode(&bytes).unwrap();
                assert_eq!(back, r, "{}", codec.name());
            }
        }
    }

    #[test]
    fn empty_region_roundtrips() {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 4);
        let e = Region::empty(g);
        for codec in RegionCodec::ALL {
            let bytes = codec.encode(&e).unwrap();
            assert_eq!(RegionCodec::decode(&bytes).unwrap(), e);
        }
    }

    #[test]
    fn full_grid_roundtrips() {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 4);
        let f = Region::full(g);
        for codec in RegionCodec::ALL {
            let bytes = codec.encode(&f).unwrap();
            assert_eq!(RegionCodec::decode(&bytes).unwrap(), f);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(RegionCodec::decode(&[]), Err(RegionEncodeError::Truncated));
        assert!(matches!(RegionCodec::decode(&[0u8; 10]), Err(RegionEncodeError::BadMagic(_))));
        let g = GridGeometry::new(CurveKind::Hilbert, 2, 2);
        let mut bytes = RegionCodec::Naive.encode(&Region::full(g)).unwrap();
        bytes[2] = 99; // codec tag
        assert_eq!(RegionCodec::decode(&bytes), Err(RegionEncodeError::BadTag(99)));
    }

    #[test]
    fn decode_rejects_truncated_payload() {
        let g = GridGeometry::new(CurveKind::Hilbert, 2, 3);
        let r = Region::from_ids(g, vec![1, 2, 3, 10, 11, 40]);
        for codec in [RegionCodec::Naive, RegionCodec::Octant(OctantKind::Cubic)] {
            let bytes = codec.encode(&r).unwrap();
            let cut = &bytes[..bytes.len() - 3];
            assert!(RegionCodec::decode(cut).is_err(), "{}", codec.name());
        }
    }

    #[test]
    fn decode_rejects_out_of_grid_runs() {
        let g = GridGeometry::new(CurveKind::Hilbert, 2, 2);
        let mut bytes = RegionCodec::Naive.encode(&Region::full(g)).unwrap();
        // run end beyond 15
        bytes[14..18].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(RegionCodec::decode(&bytes), Err(RegionEncodeError::Corrupt(_))));
    }

    #[test]
    fn encode_into_appends_and_refuses_a_wide_grid_untouched() {
        let r = paper_region_z();
        for codec in RegionCodec::ALL.into_iter().chain([RegionCodec::K3Tree]) {
            let mut out = vec![7u8, 7];
            codec.encode_into(&r, &mut out).unwrap();
            assert_eq!(out[..2], [7, 7]);
            assert_eq!(out[2..], codec.encode(&r).unwrap()[..], "{}", codec.name());
        }
        let wide = Region::empty(GridGeometry::new(CurveKind::Morton, 3, 11));
        for codec in [RegionCodec::Naive, RegionCodec::K3Tree] {
            let mut out = vec![7u8, 7];
            let refused = codec.encode_into(&wide, &mut out).err();
            assert!(
                matches!(refused, Some(RegionEncodeError::IdTooWide { .. })),
                "{}",
                codec.name()
            );
            assert_eq!(out, [7, 7], "refused before the buffer is touched");
        }
    }

    #[test]
    fn width_limits_enforced() {
        // 3 dims x 11 bits = 33 id bits: too wide for u32 codecs.
        let g = GridGeometry::new(CurveKind::Morton, 3, 11);
        let r = Region::empty(g);
        assert!(matches!(RegionCodec::Naive.encode(&r), Err(RegionEncodeError::IdTooWide { .. })));
        // 512^3 = 27 id bits: exactly the paper's packing claim; octants
        // still fit (27 + 5 = 32).
        let g512 = GridGeometry::new(CurveKind::Morton, 3, 9);
        assert!(RegionCodec::Octant(OctantKind::Cubic).encode(&Region::empty(g512)).is_ok());
        // 1024^3 would not.
        let g1024 = GridGeometry::new(CurveKind::Morton, 3, 10);
        assert!(matches!(
            RegionCodec::Octant(OctantKind::Cubic).encode(&Region::empty(g1024)),
            Err(RegionEncodeError::IdTooWide { .. })
        ));
    }

    proptest! {
        #[test]
        fn random_regions_roundtrip_every_codec(
            ids in proptest::collection::vec(0u64..32768, 0..400),
        ) {
            let g = GridGeometry::new(CurveKind::Hilbert, 3, 5);
            let r = Region::from_ids(g, ids);
            for codec in RegionCodec::ALL {
                let bytes = codec.encode(&r).unwrap();
                prop_assert_eq!(bytes.len(), codec.encoded_len(&r).unwrap());
                prop_assert_eq!(RegionCodec::decode(&bytes).unwrap(), r.clone());
            }
        }

        /// The single validating sweep against the five-pass form, on
        /// arbitrary lists (unsorted, overlapping, adjacent, duplicate,
        /// past the grid) and on their canonical forms — through
        /// `Region::from_stored_runs` and through the naive arm's fused parse
        /// loop.
        #[test]
        fn single_sweep_decodes_what_the_five_pass_form_did(
            spans in proptest::collection::vec((0u64..33_000, 0u64..40), 0..60),
            dup in any::<bool>(),
        ) {
            let g = GridGeometry::new(CurveKind::Hilbert, 3, 5);
            let mut runs: Vec<Run> = spans.into_iter().map(|(s, l)| Run::new(s, s + l)).collect();
            if dup {
                runs.extend_from_within(..runs.len() / 2);
            }
            for list in [runs.clone(), crate::run::normalize(runs)] {
                let want = build_five_pass(g, list.clone());
                prop_assert_eq!(RegionCodec::decode(&naive_bytes(g, &list)), want.clone());
                prop_assert_eq!(Region::from_stored_runs(g, list), want);
            }
        }

        /// `encode_into` appends the REGION header and exactly the
        /// payload `k3tree::encode_runs` builds, from dense boxes down to
        /// a few scattered cells and the empty REGION, and it decodes
        /// back.
        #[test]
        fn k3_encode_into_appends_the_header_and_the_k3tree_payload(
            ids in proptest::collection::vec(0u64..(1 << 18), 0..300),
            keep in 1usize..40,
            bx in (any::<bool>(), proptest::array::uniform3(0u32..64), proptest::array::uniform3(0u32..24)),
        ) {
            let g = GridGeometry::new(CurveKind::Hilbert, 3, 6);
            let mut region = Region::from_ids(g, ids.into_iter().step_by(keep).collect());
            let (present, min, size) = bx;
            if present {
                let max = [0, 1, 2].map(|a| (min[a] + size[a]).min(63));
                region = region.union(&Region::from_box(g, min, max).expect("box inside grid"));
            }
            let mut out = vec![7u8, 7];
            RegionCodec::K3Tree.encode_into(&region, &mut out).expect("encode");
            let mut want = vec![7u8, 7];
            RegionCodec::K3Tree.write_header(g, region.run_count(), &mut want);
            want.extend(k3tree::encode_runs(region.runs(), 18).expect("payload"));
            prop_assert_eq!(&out, &want);
            prop_assert_eq!(RegionCodec::decode(&out[2..]).expect("decode"), region);
        }

        #[test]
        fn elias_never_beats_entropy_but_beats_naive_on_smooth_regions(
            center in 8u64..24,
        ) {
            // A contiguous blob has few, long runs; elias exploits that.
            let g = GridGeometry::new(CurveKind::Hilbert, 3, 5);
            let r = Region::from_runs(g, vec![Run::new(center * 100, center * 100 + 4999)]);
            let elias = RegionCodec::Elias.payload_len(&r).unwrap();
            let naive = RegionCodec::Naive.payload_len(&r).unwrap();
            prop_assert!(elias <= naive);
        }
    }
}
