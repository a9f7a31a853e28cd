//! Immutable shared columns and the artifacts derived from them.
//!
//! A [`SharedColumn`] is a read-only column shared between the workload
//! layer and any number of staged [`Buffer`](crate::Buffer)s (see
//! [`Gpu::alloc_host_shared`](crate::Gpu::alloc_host_shared)): cloning it
//! is an `Arc` clone, never a copy. Alongside the data it carries a small
//! `Sync` memo of *derived artifacts* — host-side work that is a pure
//! function of the column's contents and a config, such as an index fit.
//! Index construction is pre-query work over an immutable column (§3.2:
//! "we assume the index already exists when the query is run"), so any
//! thread that builds over the same column finds the same fit, and the
//! memo is freed together with the column's last handle.

use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// One memo entry: a `(key, Arc<artifact>)` pair, type-erased.
type Entry = Box<dyn Any + Send + Sync>;

/// A read-only column plus the artifacts derived from it.
#[derive(Clone)]
pub struct SharedColumn<T> {
    data: Arc<[T]>,
    derived: Arc<Mutex<Vec<Entry>>>,
}

impl<T> SharedColumn<T> {
    /// The artifact of type `A` derived under `key`, running `fit` over the
    /// column only if no handle to this column has derived it yet.
    ///
    /// Entries are keyed by the artifact type *and* `key` (the config the
    /// fit depends on), so two configs never share an artifact. `fit` runs
    /// outside the lock: fits are pure, so threads racing on one column at
    /// worst duplicate work, and all of them get the first stored result.
    pub fn derived<K, A>(&self, key: K, fit: impl FnOnce(&[T]) -> A) -> Arc<A>
    where
        K: PartialEq + Send + Sync + 'static,
        A: Send + Sync + 'static,
    {
        if let Some(hit) = find(&self.lock(), &key) {
            return hit;
        }
        let fresh = Arc::new(fit(&self.data));
        let mut memo = self.lock();
        if let Some(hit) = find(&memo, &key) {
            return hit;
        }
        memo.push(Box::new((key, Arc::clone(&fresh))));
        fresh
    }

    /// Number of artifacts derived from this column so far.
    pub fn derived_len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        // A fit never runs under the lock, so nothing can poison it.
        self.derived.lock().expect("derived-artifact memo poisoned")
    }
}

fn find<K: PartialEq + 'static, A: 'static>(memo: &[Entry], key: &K) -> Option<Arc<A>> {
    memo.iter()
        .find_map(|e| match e.downcast_ref::<(K, Arc<A>)>() {
            Some((k, a)) if k == key => Some(Arc::clone(a)),
            _ => None,
        })
}

impl<T> From<Arc<[T]>> for SharedColumn<T> {
    fn from(data: Arc<[T]>) -> Self {
        SharedColumn {
            data,
            derived: Arc::default(),
        }
    }
}

impl<T> From<Vec<T>> for SharedColumn<T> {
    fn from(data: Vec<T>) -> Self {
        Arc::<[T]>::from(data).into()
    }
}

impl<T> Deref for SharedColumn<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedColumn<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.data.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_is_keyed_by_type_and_key() {
        let col: SharedColumn<u64> = vec![1, 2, 3].into();
        let sum = col.derived(0u8, |k| k.iter().sum::<u64>());
        assert_eq!(*sum, 6);
        // Same type and key: the stored artifact, not a refit.
        let again = col.derived(0u8, |_| -> u64 { unreachable!("memo hit expected") });
        assert!(Arc::ptr_eq(&sum, &again));
        // Another key, or another artifact type under the same key, fits anew.
        assert_eq!(*col.derived(1u8, |k| k.len() as u64), 3);
        assert_eq!(*col.derived(0u8, |k| k[0] as u32), 1);
        // Clones share the memo.
        assert_eq!(col.clone().derived_len(), 3);
    }
}
