//! The Correctable's lists of views and callbacks.
//!
//! An invocation sees a handful of views and registrations at most (the
//! workspace ships five levels, and most invocations request two), so a
//! [`List`] keeps its first two elements in two `Option` slots of its
//! own and only a longer list touches the allocator. A list only grows;
//! it is emptied whole, by `mem::take`.

/// A growable list whose first two elements live inline.
pub(crate) struct List<T> {
    /// Filled in order: `head[1]` only once `head[0]` is.
    head: [Option<T>; 2],
    /// The elements past the second.
    tail: Vec<T>,
}

impl<T> Default for List<T> {
    fn default() -> Self {
        List {
            head: [None, None],
            tail: Vec::new(),
        }
    }
}

impl<T> List<T> {
    pub(crate) fn len(&self) -> usize {
        match &self.head {
            [None, _] => 0,
            [Some(_), None] => 1,
            [Some(_), Some(_)] => 2 + self.tail.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head[0].is_none()
    }

    pub(crate) fn push(&mut self, value: T) {
        match &mut self.head {
            [slot @ None, _] | [Some(_), slot @ None] => *slot = Some(value),
            [Some(_), Some(_)] => self.tail.push(value),
        }
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        match self.head.get(i) {
            Some(slot) => slot.as_ref(),
            None => self.tail.get(i - 2),
        }
    }

    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        match self.head.get_mut(i) {
            Some(slot) => slot.as_mut(),
            None => self.tail.get_mut(i - 2),
        }
    }

    pub(crate) fn last(&self) -> Option<&T> {
        self.tail
            .last()
            .or(self.head[1].as_ref())
            .or(self.head[0].as_ref())
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.head.iter().flatten().chain(&self.tail)
    }
}

impl<T> IntoIterator for List<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::array::IntoIter<Option<T>, 2>>,
        std::vec::IntoIter<T>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.head.into_iter().flatten().chain(self.tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// An element that counts its drops in a shared counter.
    #[derive(Debug)]
    struct Counted(u32, Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Push,
        Get(usize),
        GetMut(usize),
        Last,
        Iter,
        /// `mem::take` the list and consume the first `n`; the iterator
        /// drops the rest.
        Drain(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => Just(Op::Push),
            1 => (0usize..11).prop_map(Op::Get),
            1 => (0usize..11).prop_map(Op::GetMut),
            1 => Just(Op::Last),
            1 => Just(Op::Iter),
            1 => (0usize..11).prop_map(Op::Drain),
        ]
    }

    proptest! {
        /// Random scripts over 0–9 elements (a drain empties the list),
        /// against a `Vec`: every read agrees, and each element is dropped
        /// exactly once, by a drain (consumed or not) or at the end.
        #[test]
        fn list_behaves_like_a_vec(script in collection::vec(op(), 0..40)) {
            let drops = Arc::new(AtomicUsize::new(0));
            let (mut made, mut dropped_by_model) = (0u32, 0usize);
            {
                let mut list = List::default();
                let mut model: Vec<u32> = Vec::new();
                for (k, op) in script.iter().enumerate() {
                    match op {
                        Op::Push if model.len() < 9 => {
                            list.push(Counted(made, Arc::clone(&drops)));
                            model.push(made);
                            made += 1;
                        }
                        Op::Push => {}
                        Op::Get(i) => {
                            prop_assert_eq!(list.get(*i).map(|c| c.0), model.get(*i).copied());
                        }
                        Op::GetMut(i) => match (list.get_mut(*i), model.get_mut(*i)) {
                            (Some(c), Some(m)) => {
                                c.0 += 100;
                                *m += 100;
                            }
                            (got, want) => prop_assert!(
                                got.is_none() && want.is_none(),
                                "step {} get_mut({}): {:?} vs {:?}", k, i, got, want
                            ),
                        },
                        Op::Last => {
                            prop_assert_eq!(list.last().map(|c| c.0), model.last().copied());
                        }
                        Op::Iter => {
                            let got: Vec<u32> = list.iter().map(|c| c.0).collect();
                            prop_assert_eq!(&got, &model);
                        }
                        Op::Drain(n) => {
                            let taken = std::mem::take(&mut list);
                            let got: Vec<u32> = taken.into_iter().take(*n).map(|c| c.0).collect();
                            prop_assert_eq!(&got[..], &model[..model.len().min(*n)]);
                            dropped_by_model += model.len();
                            model.clear();
                        }
                    }
                    prop_assert_eq!(list.len(), model.len());
                    prop_assert_eq!(list.is_empty(), model.is_empty());
                    prop_assert_eq!(drops.load(Ordering::SeqCst), dropped_by_model);
                }
            }
            prop_assert_eq!(drops.load(Ordering::SeqCst), made as usize);
        }
    }
}
