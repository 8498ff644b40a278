//! PAST: a large-scale, persistent peer-to-peer storage utility.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Druschel & Rowstron, HotOS 2001): an archival storage layer over the
//! Pastry overlay with
//!
//! - immutable files named by 160-bit fileIds ([`fileid`]),
//! - smartcard-signed certificates and receipts ([`cert`], [`smartcard`],
//!   [`broker`]) enforcing quotas and authenticity end to end,
//! - k-fold replication on the k nodes with numerically closest nodeIds,
//!   with replica diversion, file diversion, and automatic replica
//!   restoration under churn ([`node`], [`storage`]),
//! - caching of popular files along lookup/insert routes with
//!   GreedyDual-Size eviction ([`cache`]), and
//! - random storage audits exposing cheating nodes ([`fileid::audit_proof`],
//!   [`node::PastApp`]).
//!
//! The [`network::PastNetwork`] type is the top-level API: build a
//! network, then `insert` / `lookup` / `reclaim` / `audit` and `run`.

pub mod broker;
pub mod cache;
pub mod cert;
pub mod fileid;
pub mod msg;
pub mod network;
pub mod node;
pub mod smartcard;
pub mod storage;
pub mod wire;

pub use broker::Broker;
pub use cert::{CardCert, FileCertificate, ReclaimCertificate, ReclaimReceipt, StoreReceipt};
pub use fileid::{audit_proof, ContentRef, FileId};
pub use msg::{NackReason, PastMsg};
pub use network::{
    BuildMode, CardSnapshot, FileSnapshot, PastEvent, PastNetwork, PastSnapshot, StoreSnapshot,
};
pub use node::{PastApp, PastConfig, PastOut, RetryOp};
pub use smartcard::{CardError, Smartcard};
pub use storage::{ReplicaKind, Store, StoredFile};
