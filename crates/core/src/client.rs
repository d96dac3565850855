//! The application-facing API (§3.2 of the paper): `invokeWeak`,
//! `invokeStrong`, and `invoke`.
//!
//! A [`Client`] wraps a [`Binding`]. [`Client::invoke`] delivers
//! incremental views across all (or a chosen subset of) the binding's
//! levels; [`Client::invoke_at`] closes with a single view at one chosen
//! level. The paper's `invokeWeak` / `invokeStrong` are thin wrappers
//! over `invoke_at` at the two ends of the binding's
//! [`LevelSet`] — new levels never require new
//! methods.

use crate::binding::{Binding, Upcall};
use crate::correctable::Correctable;
use crate::error::Error;
use crate::level::{ConsistencyLevel, LevelSelection, LevelSet};

/// A Correctables client bound to one storage stack.
pub struct Client<B: Binding> {
    binding: B,
    /// The binding's advertised levels, validated and sorted weakest-first
    /// once at construction — the hot invocation paths only ever need one
    /// end or one member of this set.
    levels: LevelSet,
}

impl<B: Binding> Client<B> {
    /// Wraps a binding.
    pub fn new(binding: B) -> Self {
        let levels = binding.consistency_levels();
        Client { binding, levels }
    }

    /// The underlying binding.
    pub fn binding(&self) -> &B {
        &self.binding
    }

    /// The consistency levels available through this client, weakest first.
    pub fn consistency_levels(&self) -> &LevelSet {
        &self.levels
    }

    /// Invokes `op` closing with a single view at `level`, which must be
    /// one of the binding's advertised levels.
    pub fn invoke_at(&self, op: B::Op, level: ConsistencyLevel) -> Correctable<B::Val> {
        if !self.levels.contains(level) {
            return Correctable::failed(Error::UnsupportedLevel(level));
        }
        self.submit(op, std::slice::from_ref(&level))
    }

    /// Invokes `op` with the weakest available consistency; the result
    /// closes with that single view. Equivalent to [`Client::invoke_at`]
    /// at [`LevelSet::weakest`].
    pub fn invoke_weak(&self, op: B::Op) -> Correctable<B::Val> {
        match self.levels.weakest() {
            Some(weakest) => self.submit(op, std::slice::from_ref(&weakest)),
            None => Correctable::failed(Error::Unavailable(
                "binding advertises no consistency levels".into(),
            )),
        }
    }

    /// Invokes `op` with the strongest available consistency; the result
    /// closes with that single view. Equivalent to [`Client::invoke_at`]
    /// at [`LevelSet::strongest`].
    pub fn invoke_strong(&self, op: B::Op) -> Correctable<B::Val> {
        match self.levels.strongest() {
            Some(strongest) => self.submit(op, std::slice::from_ref(&strongest)),
            None => Correctable::failed(Error::Unavailable(
                "binding advertises no consistency levels".into(),
            )),
        }
    }

    /// Invokes `op` with incremental consistency guarantees across all
    /// available levels: one preliminary view per intermediate level, then
    /// a final view at the strongest.
    pub fn invoke(&self, op: B::Op) -> Correctable<B::Val> {
        if self.levels.is_empty() {
            return Correctable::failed(Error::Unavailable("no consistency level selected".into()));
        }
        // The cached level set is already sorted and validated, so the
        // all-levels fast path skips `LevelSelection::resolve` entirely.
        self.submit(op, self.levels.as_slice())
    }

    /// Invokes `op` delivering only the selected levels (the optional
    /// `levels` argument of the paper's `invoke`).
    pub fn invoke_with(&self, op: B::Op, selection: &LevelSelection) -> Correctable<B::Val> {
        if matches!(selection, LevelSelection::All) {
            return self.invoke(op);
        }
        match selection.resolve(&self.levels) {
            Ok(levels) if levels.is_empty() => {
                Correctable::failed(Error::Unavailable("no consistency level selected".into()))
            }
            Ok(levels) => self.submit(op, levels.as_slice()),
            Err(bad) => Correctable::failed(Error::UnsupportedLevel(bad)),
        }
    }

    fn submit(&self, op: B::Op, levels: &[ConsistencyLevel]) -> Correctable<B::Val> {
        let (c, handle) = Correctable::pending();
        let upcall = Upcall::for_levels(handle, levels);
        self.binding.submit(op, levels, upcall);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correctable::State;
    use parking_lot::Mutex;

    const WEAK: ConsistencyLevel = ConsistencyLevel::WEAK;
    const CAUSAL: ConsistencyLevel = ConsistencyLevel::CAUSAL;
    const STRONG: ConsistencyLevel = ConsistencyLevel::STRONG;

    /// A binding that synchronously answers with `level.rank()` per level,
    /// recording which levels were requested.
    struct RankBinding {
        requested: Mutex<Vec<Vec<ConsistencyLevel>>>,
    }

    impl RankBinding {
        fn new() -> Self {
            RankBinding {
                requested: Mutex::new(Vec::new()),
            }
        }
    }

    impl Binding for RankBinding {
        type Op = ();
        type Val = u8;

        fn consistency_levels(&self) -> LevelSet {
            LevelSet::of(&[WEAK, CAUSAL, STRONG])
        }

        fn submit(&self, _op: (), levels: &[ConsistencyLevel], upcall: Upcall<u8>) {
            self.requested.lock().push(levels.to_vec());
            for l in levels {
                upcall.deliver(l.rank(), *l);
            }
        }
    }

    #[test]
    fn invoke_weak_closes_at_weakest() {
        let client = Client::new(RankBinding::new());
        let c = client.invoke_weak(());
        assert_eq!(c.state(), State::Final);
        let v = c.final_view().unwrap();
        assert_eq!(v.level, WEAK);
        assert_eq!(v.value, WEAK.rank());
        assert_eq!(client.binding().requested.lock()[0], vec![WEAK]);
    }

    #[test]
    fn invoke_strong_closes_at_strongest() {
        let client = Client::new(RankBinding::new());
        let c = client.invoke_strong(());
        let v = c.final_view().unwrap();
        assert_eq!(v.level, STRONG);
        assert_eq!(client.binding().requested.lock()[0], vec![STRONG]);
    }

    #[test]
    fn invoke_at_closes_at_any_advertised_level() {
        let client = Client::new(RankBinding::new());
        let c = client.invoke_at((), CAUSAL);
        assert_eq!(c.state(), State::Final);
        let v = c.final_view().unwrap();
        assert_eq!(v.level, CAUSAL);
        assert_eq!(v.value, CAUSAL.rank());
        assert!(c.preliminary_views().is_empty());
        assert_eq!(client.binding().requested.lock()[0], vec![CAUSAL]);
    }

    #[test]
    fn invoke_at_unadvertised_level_fails() {
        let client = Client::new(RankBinding::new());
        let c = client.invoke_at((), ConsistencyLevel::UPDATE);
        assert_eq!(
            c.error(),
            Some(Error::UnsupportedLevel(ConsistencyLevel::UPDATE))
        );
        assert!(client.binding().requested.lock().is_empty());
    }

    #[test]
    fn invoke_delivers_all_levels_incrementally() {
        let client = Client::new(RankBinding::new());
        let c = client.invoke(());
        assert_eq!(c.state(), State::Final);
        let prelims = c.preliminary_views();
        assert_eq!(prelims.len(), 2);
        assert_eq!(prelims[0].level, WEAK);
        assert_eq!(prelims[1].level, CAUSAL);
        assert_eq!(c.final_view().unwrap().level, STRONG);
    }

    #[test]
    fn invoke_with_subset_skips_extraneous_levels() {
        let client = Client::new(RankBinding::new());
        let c = client.invoke_with((), &LevelSelection::only(&[STRONG, WEAK]));
        assert_eq!(c.preliminary_views().len(), 1);
        assert_eq!(
            client.binding().requested.lock()[0],
            vec![WEAK, STRONG],
            "causal must not be requested from the binding"
        );
        let _ = c;
    }

    #[test]
    fn invoke_with_unknown_level_fails() {
        let client = Client::new(RankBinding::new());
        let bogus = ConsistencyLevel::new("client-bogus", 99);
        let c = client.invoke_with((), &LevelSelection::only(&[bogus]));
        assert_eq!(c.error(), Some(Error::UnsupportedLevel(bogus)));
    }
}
