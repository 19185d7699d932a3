//! The protocol registry: one place where every distributed transaction
//! protocol — Primo, its ablations and the five baselines — registers a
//! constructor behind the [`Protocol`] trait object.
//!
//! Figure harnesses, benches and examples select protocols by
//! [`ProtocolKind`] or by display name; nothing outside this module needs to
//! know which crate implements which protocol. The registry also records the
//! group-commit scheme each protocol is paired with (§6.1.3 of the paper:
//! baselines get COCO's epoch group commit, full Primo gets the watermark
//! scheme, Aria and TAPIR confirm durability themselves).

use primo_baselines::{AriaProtocol, SiloProtocol, SundialProtocol, TapirProtocol, TwoPlProtocol};
use primo_common::config::{CommitMode, LoggingScheme, ProtocolKind};
use primo_core::PrimoProtocol;
use primo_runtime::protocol::Protocol;
use std::sync::Arc;

/// A constructor producing a fresh protocol instance.
pub type ProtocolCtor = Arc<dyn Fn() -> Arc<dyn Protocol> + Send + Sync>;

/// One registered protocol.
#[derive(Clone)]
pub struct ProtocolEntry {
    /// The kind this entry is keyed by.
    pub kind: ProtocolKind,
    /// Display name, matching the paper's figure legends.
    pub name: &'static str,
    /// The group-commit scheme this protocol is paired with by default.
    pub logging: LoggingScheme,
    /// The atomic-commit mode distributed transactions of this protocol
    /// decide with (default: classic blocking 2PC, the paper's baseline).
    pub commit: CommitMode,
    ctor: ProtocolCtor,
}

impl std::fmt::Debug for ProtocolEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolEntry")
            .field("kind", &self.kind)
            .field("name", &self.name)
            .field("logging", &self.logging)
            .field("commit", &self.commit)
            .finish()
    }
}

impl ProtocolEntry {
    /// Construct a fresh instance of this protocol.
    pub fn build(&self) -> Arc<dyn Protocol> {
        (self.ctor)()
    }
}

/// Registry of every available protocol, keyed by [`ProtocolKind`].
#[derive(Debug, Clone)]
pub struct ProtocolRegistry {
    entries: Vec<ProtocolEntry>,
}

impl Default for ProtocolRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

impl ProtocolRegistry {
    /// An empty registry (for tests or fully custom protocol sets).
    pub fn empty() -> Self {
        ProtocolRegistry {
            entries: Vec::new(),
        }
    }

    /// The standard registry: Primo, both ablations and all five baselines,
    /// each paired with its group-commit scheme per §6.1.3.
    pub fn standard() -> Self {
        use LoggingScheme::{CocoEpoch, Watermark};
        let mut reg = Self::empty();
        for kind in ProtocolKind::ALL {
            let (logging, ctor): (LoggingScheme, ProtocolCtor) = match kind {
                ProtocolKind::TwoPlNoWait => {
                    (CocoEpoch, Arc::new(|| Arc::new(TwoPlProtocol::no_wait())))
                }
                ProtocolKind::TwoPlWaitDie => {
                    (CocoEpoch, Arc::new(|| Arc::new(TwoPlProtocol::wait_die())))
                }
                ProtocolKind::Silo => (CocoEpoch, Arc::new(|| Arc::new(SiloProtocol::new()))),
                ProtocolKind::Sundial => (CocoEpoch, Arc::new(|| Arc::new(SundialProtocol::new()))),
                // Aria logs inputs in its sequencing layer and TAPIR
                // replicates in its prepare round: both confirm durability
                // themselves, so the configured scheme is not on their
                // commit path.
                ProtocolKind::Aria => (
                    Watermark,
                    Arc::new(|| Arc::new(AriaProtocol::new(Default::default()))),
                ),
                ProtocolKind::Tapir => (Watermark, Arc::new(|| Arc::new(TapirProtocol::new()))),
                ProtocolKind::Primo => (Watermark, Arc::new(|| Arc::new(PrimoProtocol::full()))),
                ProtocolKind::PrimoNoWm => (
                    CocoEpoch,
                    Arc::new(|| Arc::new(PrimoProtocol::full().labeled("Primo w/o WM"))),
                ),
                ProtocolKind::PrimoNoWcfNoWm => (
                    CocoEpoch,
                    Arc::new(|| {
                        Arc::new(PrimoProtocol::without_wcf().labeled("Primo w/o WM & WCF"))
                    }),
                ),
            };
            reg.register(kind, logging, ctor);
        }
        reg
    }

    /// Register (or replace) the constructor for a protocol kind. The display
    /// name is the kind's figure label.
    pub fn register(&mut self, kind: ProtocolKind, logging: LoggingScheme, ctor: ProtocolCtor) {
        self.entries.retain(|e| e.kind != kind);
        self.entries.push(ProtocolEntry {
            kind,
            name: kind.label(),
            logging,
            commit: CommitMode::default(),
            ctor,
        });
    }

    /// Named knob: set the atomic-commit mode one protocol's distributed
    /// transactions decide with (chainable).
    ///
    /// # Panics
    /// Panics if the kind is not registered — a silently dropped knob would
    /// make an ablation run measure the wrong protocol.
    pub fn with_commit_mode(mut self, kind: ProtocolKind, mode: CommitMode) -> Self {
        self.set_commit_mode(kind, mode);
        self
    }

    /// In-place form of [`ProtocolRegistry::with_commit_mode`].
    ///
    /// # Panics
    /// Panics if the kind is not registered.
    pub fn set_commit_mode(&mut self, kind: ProtocolKind, mode: CommitMode) {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.kind == kind)
            .unwrap_or_else(|| panic!("protocol {kind:?} is not registered"));
        entry.commit = mode;
    }

    /// Set the atomic-commit mode of *every* registered protocol (chainable)
    /// — the whole-matrix ablation switch.
    pub fn with_commit_mode_everywhere(mut self, mode: CommitMode) -> Self {
        for e in &mut self.entries {
            e.commit = mode;
        }
        self
    }

    /// The atomic-commit mode a kind decides distributed transactions with.
    /// Defaults to classic 2PC for unregistered kinds.
    pub fn commit_mode_for(&self, kind: ProtocolKind) -> CommitMode {
        self.entry(kind).map(|e| e.commit).unwrap_or_default()
    }

    /// All registered kinds, in registration order.
    pub fn kinds(&self) -> Vec<ProtocolKind> {
        self.entries.iter().map(|e| e.kind).collect()
    }

    /// Look up the entry for a kind.
    pub fn entry(&self, kind: ProtocolKind) -> Option<&ProtocolEntry> {
        self.entries.iter().find(|e| e.kind == kind)
    }

    /// Look up an entry by display name (case-insensitive), e.g. `"Primo"`,
    /// `"2PL(NW)"`, `"Sundial"`.
    pub fn entry_by_name(&self, name: &str) -> Option<&ProtocolEntry> {
        self.entries
            .iter()
            .find(|e| e.name.eq_ignore_ascii_case(name))
    }

    /// Construct a fresh protocol instance for a kind.
    ///
    /// # Panics
    /// Panics if the kind is not registered; use [`ProtocolRegistry::entry`]
    /// for a fallible lookup.
    pub fn build(&self, kind: ProtocolKind) -> Arc<dyn Protocol> {
        self.entry(kind)
            .unwrap_or_else(|| panic!("protocol {kind:?} is not registered"))
            .build()
    }

    /// The group-commit scheme a kind is paired with (§6.1.3). Defaults to
    /// COCO for unregistered kinds.
    pub fn logging_scheme_for(&self, kind: ProtocolKind) -> LoggingScheme {
        self.entry(kind)
            .map(|e| e.logging)
            .unwrap_or(LoggingScheme::CocoEpoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_covers_every_kind() {
        let reg = ProtocolRegistry::standard();
        for kind in ProtocolKind::ALL {
            let p = reg.build(kind);
            assert_eq!(p.name(), kind.label(), "{kind:?} label mismatch");
        }
        assert_eq!(reg.kinds().len(), 9);
    }

    #[test]
    fn logging_pairing_follows_the_paper() {
        let reg = ProtocolRegistry::standard();
        assert_eq!(
            reg.logging_scheme_for(ProtocolKind::Primo),
            LoggingScheme::Watermark
        );
        assert_eq!(
            reg.logging_scheme_for(ProtocolKind::Sundial),
            LoggingScheme::CocoEpoch
        );
        assert_eq!(
            reg.logging_scheme_for(ProtocolKind::PrimoNoWm),
            LoggingScheme::CocoEpoch
        );
    }

    #[test]
    fn lookup_by_name_matches_figure_legends() {
        let reg = ProtocolRegistry::standard();
        assert_eq!(
            reg.entry_by_name("primo").unwrap().kind,
            ProtocolKind::Primo
        );
        assert_eq!(
            reg.entry_by_name("2PL(NW)").unwrap().kind,
            ProtocolKind::TwoPlNoWait
        );
        assert!(reg.entry_by_name("nope").is_none());
    }

    #[test]
    fn commit_mode_knob_is_per_protocol() {
        let reg = ProtocolRegistry::standard()
            .with_commit_mode(ProtocolKind::TwoPlNoWait, CommitMode::PaxosCommit);
        assert_eq!(
            reg.commit_mode_for(ProtocolKind::TwoPlNoWait),
            CommitMode::PaxosCommit
        );
        // Everyone else keeps the blocking default.
        assert_eq!(reg.commit_mode_for(ProtocolKind::Primo), CommitMode::TwoPc);
        let reg = reg.with_commit_mode_everywhere(CommitMode::PaxosCommit);
        for kind in reg.kinds() {
            assert_eq!(reg.commit_mode_for(kind), CommitMode::PaxosCommit);
        }
    }

    #[test]
    #[should_panic(expected = "is not registered")]
    fn commit_mode_knob_rejects_unregistered_kinds() {
        let _ = ProtocolRegistry::empty()
            .with_commit_mode(ProtocolKind::Primo, CommitMode::PaxosCommit);
    }

    #[test]
    fn register_replaces_existing_entry() {
        let mut reg = ProtocolRegistry::standard();
        reg.register(
            ProtocolKind::Primo,
            LoggingScheme::CocoEpoch,
            Arc::new(|| Arc::new(PrimoProtocol::without_wcf())),
        );
        assert_eq!(reg.kinds().len(), 9);
        assert_eq!(
            reg.logging_scheme_for(ProtocolKind::Primo),
            LoggingScheme::CocoEpoch
        );
    }
}
