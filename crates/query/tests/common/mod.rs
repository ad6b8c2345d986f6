//! What the query crate's integration tests share: a seeded generator and
//! an [`IndexAccess`] whose lists a test writes out by hand.
#![allow(dead_code)] // each test binary uses its own subset

use ndss_corpus::TextId;
use ndss_hash::HashValue;
use ndss_index::{IndexAccess, IndexConfig, IndexError, IoSnapshot, IoStats, Posting, SharedList};

/// SplitMix64: a seed is the whole input of every test that draws from it.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Hand-built lists behind [`IndexAccess`]: list `func` answers the one
/// hash the query's sketch has under `func`.
pub struct HandBuilt {
    pub config: IndexConfig,
    pub keys: Vec<HashValue>,
    pub lists: Vec<Vec<Posting>>,
}

impl HandBuilt {
    fn list(&self, func: usize, hash: HashValue) -> &[Posting] {
        if self.keys[func] == hash {
            &self.lists[func]
        } else {
            &[]
        }
    }
}

impl IndexAccess for HandBuilt {
    fn config(&self) -> &IndexConfig {
        &self.config
    }

    fn list_len(&self, func: usize, hash: HashValue) -> Result<u64, IndexError> {
        Ok(self.list(func, hash).len() as u64)
    }

    fn shared_list(
        &self,
        func: usize,
        hash: HashValue,
        _io: &IoStats,
    ) -> Result<SharedList<'_>, IndexError> {
        Ok(SharedList::Borrowed(self.list(func, hash)))
    }

    fn probe_texts(
        &self,
        func: usize,
        hash: HashValue,
        texts: &[TextId],
        _io: &IoStats,
        out: &mut Vec<Posting>,
    ) -> Result<(), IndexError> {
        let list = self.list(func, hash);
        out.extend(list.iter().filter(|p| texts.binary_search(&p.text).is_ok()));
        Ok(())
    }

    fn io_snapshot(&self) -> IoSnapshot {
        IoSnapshot::default()
    }

    fn list_length_histogram(&self, func: usize) -> Result<Vec<(u64, u64)>, IndexError> {
        Ok(vec![(self.lists[func].len() as u64, 1)])
    }
}
