//! Interned names for resources, metrics, and trace subjects.
//!
//! The emulator stamps every resource and trace entry with a name like
//! `"host0.cpu"`. Those names repeat millions of times across a sweep;
//! interning stores each distinct string once and hands out shared
//! pointers, so stamping a name is a pointer copy instead of a `String`
//! allocation, and equality checks usually resolve on the pointer.
//!
//! The intern table is global and sharded: partitioned simulation runs
//! (`lmas-sim`'s parallel kernel, `lmas-par` sweeps) intern names from
//! many threads at once, and merged reports compare names across the
//! threads that created them. A name's text picks its shard, so equal
//! text always lands in the same shard and resolves to the *same*
//! allocation regardless of thread — `Name` equality stays a pointer
//! comparison in the common case. Shard locks are uncontended in
//! sequential runs and name creation is rare (names repeat; the table
//! hit path is one short critical section).

use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, LazyLock, Mutex};

/// A cheaply clonable, interned, immutable string.
#[derive(Clone)]
pub struct Name(Arc<str>);

impl Name {
    /// The interned text.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

const SHARD_COUNT: usize = 16;

static SHARDS: LazyLock<Vec<Mutex<HashSet<Arc<str>>>>> =
    LazyLock::new(|| (0..SHARD_COUNT).map(|_| Mutex::new(HashSet::new())).collect());

/// 64-bit FNV-1a over a byte stream: stable across runs, platforms and
/// releases, so digests of it can be pinned in goldens. The multiplier
/// is `0x1000_0000_01b3`, not the published FNV-64 prime
/// `0x100_0000_01b3`; the pinned digests were recorded with it.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Shard selector: equal text → equal shard, on every thread.
fn shard_of(s: &str) -> usize {
    (fnv1a(s.bytes()) as usize) & (SHARD_COUNT - 1)
}

/// Intern `s`, returning a shared handle. Repeated calls with equal text
/// — from any thread — return clones of one allocation.
pub fn intern(s: &str) -> Name {
    let mut table = SHARDS[shard_of(s)].lock().unwrap();
    if let Some(existing) = table.get(s) {
        Name(existing.clone())
    } else {
        let arc: Arc<str> = Arc::from(s);
        table.insert(arc.clone());
        Name(arc)
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    #[inline]
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // Interned names with equal text share one Arc, whichever
        // threads created them.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}
impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_storage() {
        let a = intern("host0.cpu");
        let b = intern("host0.cpu");
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        assert_eq!(a, "host0.cpu");
    }

    #[test]
    fn concurrent_interning_round_trips() {
        // Many threads intern overlapping name sets; every handle must
        // round-trip to its text, and equal text must share one
        // allocation across threads (stable global identity).
        let texts: Vec<String> = (0..64).map(|i| format!("par{}.cpu", i % 12)).collect();
        let per_thread: Vec<Vec<Name>> = std::thread::scope(|s| {
            let joins: Vec<_> = (0..4)
                .map(|_| {
                    let texts = &texts;
                    s.spawn(move || texts.iter().map(|t| intern(t)).collect::<Vec<Name>>())
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        for names in &per_thread {
            for (name, text) in names.iter().zip(&texts) {
                assert_eq!(name.as_str(), text.as_str());
            }
        }
        for names in &per_thread[1..] {
            for (a, b) in per_thread[0].iter().zip(names) {
                assert!(Arc::ptr_eq(&a.0, &b.0), "cross-thread interning must dedupe");
            }
        }
    }

    #[test]
    fn distinct_names_differ() {
        let a = intern("host0.cpu");
        let b = intern("host0.nic");
        assert_ne!(a, b);
        assert_eq!(format!("{a}"), "host0.cpu");
        assert_eq!(format!("{b:?}"), "\"host0.nic\"");
    }
}
