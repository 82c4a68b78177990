//! A stored REGION operand: one long field, decoded once.
//!
//! Every read of a REGION long field — an operator's operand, a
//! multi-study stage's band — goes through the LFM's object cache
//! ([`qbism_lfm::LongFieldManager::read_object`]) as a
//! [`StoredRegion`], so while the field stays cached its bytes are
//! neither copied nor decoded again, and every reader shares one
//! object.  That cache is on whatever the page-pool setting, bounded by
//! the device's data-area bytes: it is host memory, and only the page
//! pool models the 1994 buffer.  A naive field is decoded as it is
//! read.  A k³ field keeps its payload, which the multi-study fold
//! descends without decoding, and decodes its runs the first time a
//! reader needs them — every operator does — into a memo cell the
//! cached object keeps.
//!
//! The memo cell is a `std::sync::OnceLock`: readers racing the first
//! decode may each decode, but the cell keeps one set of runs and
//! every reader gets that one.
//!
//! Every read of the field's bytes here is a checked one: the crate's
//! indexing exception does not reach this module.
#![warn(clippy::indexing_slicing)]

use qbism_region::{open_k3, GridGeometry, Region, RegionCodec, RegionEncodeError, Run};
use std::sync::{Arc, OnceLock};

/// A REGION long field as its readers share it.
#[derive(Debug)]
pub struct StoredRegion {
    geometry: GridGeometry,
    encoded_len: usize,
    form: Form,
}

#[derive(Debug)]
enum Form {
    /// A Figure-4 codec, decoded as it was read.
    Decoded(Arc<Region>),
    /// k³: the field's bytes, its payload from `payload` on, and its
    /// runs once a reader has decoded them.
    K3 { bytes: Vec<u8>, payload: usize, runs: OnceLock<Arc<Region>> },
}

impl StoredRegion {
    /// The stored REGION a field's bytes hold, and the bytes it holds in
    /// memory — what the object cache charges it: a naive field is
    /// decoded now and holds its runs; a k³ field holds its bytes plus
    /// the runs its header promises, which it decodes on first use.
    pub fn decode(bytes: Vec<u8>) -> Result<(StoredRegion, usize), RegionEncodeError> {
        let (_, geometry, count) = RegionCodec::header(&bytes)?;
        let encoded_len = bytes.len();
        let run = std::mem::size_of::<Run>();
        let (form, held) = match open_k3(&bytes)? {
            Some((_, payload)) => {
                let payload = encoded_len - payload.len();
                let held = encoded_len.saturating_add(count.saturating_mul(run));
                (Form::K3 { bytes, payload, runs: OnceLock::new() }, held)
            }
            None => {
                let region = RegionCodec::decode(&bytes)?;
                let held = region.run_count() * run;
                (Form::Decoded(Arc::new(region)), held)
            }
        };
        let held = held.saturating_add(std::mem::size_of::<StoredRegion>());
        Ok((StoredRegion { geometry, encoded_len, form }, held))
    }

    /// The grid the header names.
    pub fn geometry(&self) -> GridGeometry {
        self.geometry
    }

    /// Length of the field's bytes.
    pub fn encoded_len(&self) -> usize {
        self.encoded_len
    }

    /// The k³ payload, for a directory descent.  `None` for other
    /// codecs.
    pub fn k3_payload(&self) -> Option<&[u8]> {
        match &self.form {
            Form::K3 { bytes, payload, .. } => bytes.get(*payload..),
            Form::Decoded(_) => None,
        }
    }

    /// The REGION, decoded at most once per stored object.
    pub fn region(&self) -> Result<&Arc<Region>, RegionEncodeError> {
        match &self.form {
            Form::Decoded(region) => Ok(region),
            Form::K3 { bytes, runs, .. } => {
                if let Some(region) = runs.get() {
                    return Ok(region);
                }
                let region = Arc::new(RegionCodec::decode(bytes)?);
                Ok(runs.get_or_init(|| region))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbism_sfc::CurveKind;

    fn sample() -> Region {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 4);
        Region::from_box(g, [1, 2, 3], [9, 4, 12]).unwrap().union(&Region::from_ids(g, vec![4_000]))
    }

    #[test]
    fn every_codec_opens_to_its_region_and_k3_decodes_once() {
        let region = sample();
        for codec in RegionCodec::ALL.into_iter().chain([RegionCodec::K3Tree]) {
            let bytes = codec.encode(&region).unwrap();
            let len = bytes.len();
            let (stored, held) = StoredRegion::decode(bytes).unwrap();
            assert_eq!((stored.geometry(), stored.encoded_len()), (region.geometry(), len));
            let k3 = codec == RegionCodec::K3Tree;
            assert_eq!(stored.k3_payload().is_some(), k3, "{}", codec.name());
            let runs = region.run_count() * std::mem::size_of::<Run>();
            assert_eq!(held, std::mem::size_of::<StoredRegion>() + runs + if k3 { len } else { 0 });
            let first = Arc::clone(stored.region().unwrap());
            assert_eq!(*first, region, "{}", codec.name());
            assert!(Arc::ptr_eq(&first, stored.region().unwrap()), "decoded once");
            assert_eq!(stored.k3_payload().is_some(), k3, "the payload stays for the descent");
        }
    }

    #[test]
    fn a_damaged_k3_payload_is_an_error_when_its_runs_are_needed() {
        let mut bytes = RegionCodec::K3Tree.encode(&sample()).unwrap();
        bytes.truncate(bytes.len() - 2);
        let (stored, _) = StoredRegion::decode(bytes).unwrap();
        assert!(stored.region().is_err());
        assert!(stored.region().is_err(), "nothing memoised");
        assert!(StoredRegion::decode(vec![1, 2, 3]).is_err());
    }
}
