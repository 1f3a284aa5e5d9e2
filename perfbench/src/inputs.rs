//! Seeded inputs: driver images and transaction keys.
//!
//! Every byte the program receives is generated here. A workload's
//! base driver is a fixed `code.bin` entropy stream packed with
//! [`Archive`]; each upgrade rewrites one region of the previous
//! version's code, at an offset and with bytes drawn from `--seed`, so
//! delta transfer has real but local work. The base stream does not
//! depend on the seed, so the number of chunks the image splits into,
//! and with it the size of every offer's chunk list, stays put across
//! seeds. Driver names carry the seed and have fixed lengths, as do
//! version strings, so every version of a workload packs to the same
//! archive size.

use bytes::Bytes;

use drivolution_core::pack::{Archive, IMAGE_ENTRY};
use drivolution_core::{
    entropy_blob, ApiName, BinaryFormat, DriverId, DriverImage, DriverRecord, DriverVersion,
};

/// SplitMix64: a tiny seeded generator, so inputs depend on nothing but
/// the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The generator of a workload's transaction keys.
pub fn txn_rng(seed: u64) -> Rng {
    Rng::new(seed ^ 0x5eed_0f7a)
}

/// One generated driver version, ready to install.
#[derive(Clone, Debug)]
pub struct Driver {
    pub record: DriverRecord,
    /// Digest of the packed [`DriverImage`]: what a client reports
    /// through `Bootloader::active_image_digest` once it runs this
    /// version.
    pub image_digest: u64,
    pub version: DriverVersion,
}

/// A base driver and its chain of upgrades.
#[derive(Clone, Debug)]
pub struct DriverChain {
    pub base: Driver,
    pub upgrades: Vec<Driver>,
}

/// Seed of the base driver's code stream.
const BASE_STREAM: u64 = 0x0b5e_55ed;

/// The base driver takes id 2: id 1 is the small unseeded driver every
/// `FleetSim` constructor installs, which the benchmark retires before
/// any client boots.
const BASE_ID: i64 = 2;

/// Builds a base driver of about `code_len` bytes plus `upgrades`
/// versions, each rewriting `region_len` bytes at a seed-chosen offset
/// of its predecessor's code with seeded bytes.
pub fn driver_chain(seed: u64, code_len: usize, region_len: usize, upgrades: usize) -> DriverChain {
    let mut rng = Rng::new(seed);
    let name = format!("bench-drv-{seed:016x}");
    let mut code = entropy_blob(code_len, BASE_STREAM);
    let base = pack(&name, BASE_ID, DriverVersion::new(1, 1, 0), 1, &code);
    let mut chain = Vec::with_capacity(upgrades);
    for k in 0..upgrades {
        let at = rng.below((code_len - region_len) as u64) as usize;
        code[at..at + region_len].copy_from_slice(&entropy_blob(region_len, rng.next_u64()));
        chain.push(pack(
            &name,
            BASE_ID + 1 + k as i64,
            DriverVersion::new(2 + k as i32, 0, 0),
            2,
            &code,
        ));
    }
    DriverChain {
        base,
        upgrades: chain,
    }
}

fn pack(name: &str, id: i64, version: DriverVersion, proto: u16, code: &[u8]) -> Driver {
    let image = DriverImage::new(name, version, proto);
    let mut archive = Archive::new(BinaryFormat::Djar);
    archive.add_entry(IMAGE_ENTRY, image.encode());
    archive.add_entry("code.bin", Bytes::from(code.to_vec()));
    Driver {
        record: DriverRecord::new(
            DriverId(id),
            ApiName::rdbc(),
            BinaryFormat::Djar,
            archive.encode(),
        )
        .with_version(version),
        image_digest: image.digest(),
        version,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_edits() {
        let a = driver_chain(7, 64 * 1024, 4096, 2);
        let b = driver_chain(7, 64 * 1024, 4096, 2);
        let c = driver_chain(8, 64 * 1024, 4096, 2);
        assert_eq!(a.upgrades[1].record.binary, b.upgrades[1].record.binary);
        assert_ne!(a.upgrades[1].record.binary, c.upgrades[1].record.binary);
        // Same shape: every version packs to the same size.
        let len = a.base.record.binary.len();
        assert!(a.upgrades.iter().all(|d| d.record.binary.len() == len));
        assert_eq!(c.base.record.binary.len(), len);
    }
}
