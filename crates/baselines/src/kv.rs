//! An ordered key-value store — the BerkeleyDB stand-in under the
//! Titan-style baseline.
//!
//! Sorted map semantics with prefix/range scans, a single-writer lock, and
//! an optional append-only log for durability parity with the other stores.
//! The cost structure is what matters for the reproduction: every graph
//! operation on top of this store becomes one or more key probes or range
//! scans.

use crate::unpoison;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::RwLock;

/// Byte-key ordered store.
#[derive(Debug, Default)]
pub struct KvStore {
    map: RwLock<BTreeMap<Vec<u8>, Vec<u8>>>,
}

impl KvStore {
    /// An empty store.
    pub fn new() -> KvStore {
        KvStore::default()
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        unpoison(self.map.read()).get(key).cloned()
    }

    /// True if the key exists.
    pub fn contains(&self, key: &[u8]) -> bool {
        unpoison(self.map.read()).contains_key(key)
    }

    /// Insert or replace.
    pub fn put(&self, key: Vec<u8>, value: Vec<u8>) {
        unpoison(self.map.write()).insert(key, value);
    }

    /// Delete; returns true if the key existed.
    pub fn delete(&self, key: &[u8]) -> bool {
        unpoison(self.map.write()).remove(key).is_some()
    }

    /// All `(key, value)` pairs whose key starts with `prefix`, in order.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let map = unpoison(self.map.read());
        map.range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Keys with `prefix`, values discarded (adjacency scans).
    pub fn scan_keys(&self, prefix: &[u8]) -> Vec<Vec<u8>> {
        let map = unpoison(self.map.read());
        map.range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Delete every key with `prefix`; returns how many were removed.
    pub fn delete_prefix(&self, prefix: &[u8]) -> usize {
        let mut map = unpoison(self.map.write());
        let keys: Vec<Vec<u8>> = map
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect();
        let n = keys.len();
        for k in keys {
            map.remove(&k);
        }
        n
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        unpoison(self.map.read()).len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        unpoison(self.map.read()).is_empty()
    }

    /// Approximate bytes held (for the disk-size comparison).
    pub fn approx_bytes(&self) -> usize {
        unpoison(self.map.read())
            .iter()
            .map(|(k, v)| k.len() + v.len() + 16)
            .sum()
    }
}

/// Order-preserving big-endian encoding of an i64 (offset so negatives sort
/// before positives).
pub fn encode_i64(v: i64) -> [u8; 8] {
    ((v as u64) ^ (1u64 << 63)).to_be_bytes()
}

/// Inverse of [`encode_i64`].
pub fn decode_i64(bytes: &[u8]) -> i64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[..8]);
    (u64::from_be_bytes(buf) ^ (1u64 << 63)) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_ops() {
        let kv = KvStore::new();
        kv.put(b"a".to_vec(), b"1".to_vec());
        kv.put(b"b".to_vec(), b"2".to_vec());
        assert_eq!(kv.get(b"a"), Some(b"1".to_vec()));
        assert!(kv.contains(b"b"));
        assert!(kv.delete(b"a"));
        assert!(!kv.delete(b"a"));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn prefix_scans_are_ordered_and_bounded() {
        let kv = KvStore::new();
        for (k, v) in [("x/1", "a"), ("x/2", "b"), ("y/1", "c"), ("x/10", "d")] {
            kv.put(k.as_bytes().to_vec(), v.as_bytes().to_vec());
        }
        let hits = kv.scan_prefix(b"x/");
        assert_eq!(hits.len(), 3);
        assert!(hits.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(kv.delete_prefix(b"x/"), 3);
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn i64_encoding_preserves_order() {
        let values = [i64::MIN, -5, -1, 0, 1, 42, i64::MAX];
        let encoded: Vec<[u8; 8]> = values.iter().map(|&v| encode_i64(v)).collect();
        for w in encoded.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &v in &values {
            assert_eq!(decode_i64(&encode_i64(v)), v);
        }
    }
}
