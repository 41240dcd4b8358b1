//! `DetMap` behaves like the ordered map it replaces, and stays the only
//! hash table in the workspace with no way to walk it.

use nk_types::{DetMap, SockAddr, SocketId, VmId};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fs;
use std::hash::Hash;
use std::path::{Path, PathBuf};

/// SplitMix64: the test's own generator (nk-types sits below `nk-sim`).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let x = self.0;
        let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

/// `ops` random operations applied to a `DetMap` and a `BTreeMap` alike,
/// every return value compared, keys drawn from `universe` values of
/// `key_of`; `len`, `sorted()`, `sorted_keys()` and the two folds compared
/// after every 1 000.
fn differential<K>(seed: u64, ops: usize, universe: u64, key_of: impl Fn(u64) -> K)
where
    K: Ord + Hash + Clone + Debug,
{
    let mut rng = Rng(seed);
    let mut det: DetMap<K, u64> = DetMap::new();
    let mut model: BTreeMap<K, u64> = BTreeMap::new();
    assert!(det.is_empty());
    for op in 1..=ops {
        let key = key_of(rng.next() % universe);
        let value = rng.next();
        match rng.next() % 100 {
            0..=29 => assert_eq!(det.insert(key.clone(), value), model.insert(key, value)),
            30..=49 => assert_eq!(det.get(&key), model.get(&key)),
            50..=59 => {
                let (a, b) = (det.get_mut(&key), model.get_mut(&key));
                assert_eq!(a.as_deref(), b.as_deref());
                if let (Some(a), Some(b)) = (a, b) {
                    *a ^= value;
                    *b ^= value;
                }
            }
            60..=79 => assert_eq!(det.remove(&key), model.remove(&key)),
            80..=94 => {
                let mut made = false;
                let a = *det.get_or_insert_with(key.clone(), || {
                    made = true;
                    value
                });
                assert_eq!(made, !model.contains_key(&key));
                assert_eq!(a, *model.entry(key).or_insert(value));
            }
            95..=98 => assert_eq!(det.contains_key(&key), model.contains_key(&key)),
            _ => {
                // Rare, and it bites: drops about a third and edits the rest.
                let keep = |v: &mut u64| {
                    *v = v.rotate_left(1);
                    !v.is_multiple_of(3)
                };
                det.retain(|_, v| keep(v));
                model.retain(|_, v| keep(v));
            }
        }
        if op % 1_000 == 0 {
            assert_eq!(det.len(), model.len());
            assert_eq!(det.is_empty(), model.is_empty());
            assert_eq!(det.sorted(), model.iter().collect::<Vec<_>>());
            assert_eq!(det.sorted_keys(), model.keys().cloned().collect::<Vec<_>>());
            let odd = |_: &K, v: &u64| v % 2 == 1;
            assert_eq!(
                det.count(odd),
                model.iter().filter(|(k, v)| odd(k, v)).count()
            );
            assert_eq!(det.any(odd), model.iter().any(|(k, v)| odd(k, v)));
        }
    }
}

/// 100 000 operations over the key shapes the datapath uses.
#[test]
fn detmap_matches_btreemap_on_datapath_key_shapes() {
    // Sequential socket ids (`TcpStack::sockets`, `ServiceLib::socks`).
    differential(1, 25_000, 3_000, |i| SocketId(i as u32 + 1));
    // Guest tuples: a few VMs, NSM-allocated ids above the base (ServiceLib's `socks`).
    differential(2, 25_000, 3_000, |i| {
        (VmId((i % 3) as u8), SocketId(0x8000_0000 + (i / 3) as u32))
    });
    // 4-tuples that differ only in the source port (`demux` under `churn`).
    differential(3, 25_000, 3_000, |i| {
        let local = SockAddr::new(0x0A00_0002, 40_000 + i as u16);
        (local, SockAddr::new(0x0A00_0001, 80))
    });
    // Cache-line-aligned hugepage offsets (`Allocator::live`).
    differential(4, 25_000, 3_000, |i| i as usize * 64);
}

fn rust_sources(dir: &Path, into: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, into);
        } else if path.extension().is_some_and(|e| e == "rs") {
            into.push(path);
        }
    }
}

/// The `hash-order` hazard stays unrepresentable: `detmap.rs` offers no walk
/// in table order, and no other file under `crates/` names the hash map at
/// all (clippy would refuse it too; this names the file that broke the rule).
#[test]
fn detmap_cannot_be_walked_and_is_the_only_hash_table() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let detmap = crates.join("nk-types/src/detmap.rs");
    let code_of = |path: &Path| -> String {
        let text = fs::read_to_string(path).unwrap();
        let code = text.lines().map(|l| l.split("//").next().unwrap());
        code.collect::<Vec<_>>().join("\n")
    };
    let code = code_of(&detmap);
    for walk in [
        "fn iter",
        "fn keys",
        "fn values",
        "fn drain",
        "fn into_iter",
        "impl IntoIterator",
        "IntoIterator for",
    ] {
        assert!(!code.contains(walk), "detmap.rs defines `{walk}`");
    }
    let banned = concat!("Hash", "Map");
    assert!(code.contains(banned), "the scan reads the wrong file");

    let mut sources = Vec::new();
    rust_sources(crates, &mut sources);
    assert!(sources.len() > 50, "the scan reads the wrong directory");
    for path in sources {
        if path != detmap {
            let names_it = code_of(&path).contains(banned);
            assert!(!names_it, "{} names {banned}", path.display());
        }
    }
}
