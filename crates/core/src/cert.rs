//! Certificates and receipts (§2.1 of the paper).
//!
//! - A **file certificate** authorizes an insertion: "contains the fileId,
//!   its replication factor k, the salt, the insertion date and a
//!   cryptographic hash of the file's content ... signed by the file's
//!   owner" (by the owner's smartcard).
//! - A **store receipt** proves a node stored a copy: "allows the client to
//!   verify that k copies of the file have been created on nodes with
//!   adjacent nodeIds".
//! - A **reclaim certificate/receipt** pair authorizes and acknowledges
//!   storage reclamation.
//!
//! Every certificate embeds the issuing smartcard's broker-signed
//! credential ([`CardCert`]), so any node can verify the chain
//! broker → card → certificate offline.

use crate::fileid::FileId;
use past_crypto::{Digest256, PublicKey, Signature};

/// A smartcard credential: the card's public key signed by its broker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CardCert {
    /// The card's public key.
    pub card_key: PublicKey,
    /// The issuing broker's public key.
    pub broker_key: PublicKey,
    /// Broker signature over the card key.
    pub broker_sig: Signature,
}

impl CardCert {
    /// Message the broker signs when certifying a card: the domain tag
    /// followed by the card key (a fixed 49 bytes, built on the stack).
    pub fn message(card_key: &PublicKey) -> [u8; 49] {
        const TAG: &[u8] = b"past-card-cert-v1";
        let mut m = [0u8; 49];
        m[..TAG.len()].copy_from_slice(TAG);
        m[TAG.len()..].copy_from_slice(&card_key.to_bytes());
        m
    }

    /// Verifies the broker's signature (against the expected broker key).
    pub fn verify(&self, broker: &PublicKey) -> bool {
        self.broker_key == *broker
            && self
                .broker_key
                .verify(&Self::message(&self.card_key), &self.broker_sig)
    }
}

/// A signed authorization to insert one file.
///
/// Equality compares every signed field (signatures included), so two
/// equal certificates are necessarily the same issuance — `inserted_at`
/// and the signature distinguish a retransmitted insert from a fresh
/// insert of the same file.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FileCertificate {
    /// The file's 160-bit identifier.
    pub file_id: FileId,
    /// SHA-256 of the file contents.
    pub content_hash: Digest256,
    /// Content length in bytes.
    pub size: u64,
    /// Replication factor `k`.
    pub replication: u8,
    /// The salt used in fileId derivation (re-salting implements file
    /// diversion).
    pub salt: u64,
    /// Insertion date (simulated microseconds).
    pub inserted_at: u64,
    /// The owner card's credential.
    pub owner: CardCert,
    /// The owner card's signature over the fields above.
    pub signature: Signature,
}

impl FileCertificate {
    /// Canonical byte encoding of the signed fields.
    pub fn message(
        file_id: &FileId,
        content_hash: &Digest256,
        size: u64,
        replication: u8,
        salt: u64,
        inserted_at: u64,
    ) -> Vec<u8> {
        let mut m = b"past-file-cert-v1".to_vec();
        m.extend_from_slice(file_id.as_bytes());
        m.extend_from_slice(&content_hash.0);
        m.extend_from_slice(&size.to_be_bytes());
        m.push(replication);
        m.extend_from_slice(&salt.to_be_bytes());
        m.extend_from_slice(&inserted_at.to_be_bytes());
        m
    }

    /// Verifies the full chain: broker → owner card → certificate.
    pub fn verify(&self, broker: &PublicKey) -> bool {
        self.owner.verify(broker)
            && self.owner.card_key.verify(
                &Self::message(
                    &self.file_id,
                    &self.content_hash,
                    self.size,
                    self.replication,
                    self.salt,
                    self.inserted_at,
                ),
                &self.signature,
            )
    }
}

/// A signed acknowledgment that a node stored one copy of a file.
#[derive(Clone, Copy, Debug)]
pub struct StoreReceipt {
    /// The stored file.
    pub file_id: FileId,
    /// Bytes stored (the file size; 0 for an already-present copy).
    pub stored: u64,
    /// Whether the copy was stored under replica diversion.
    pub diverted: bool,
    /// The storing node card's credential.
    pub storer: CardCert,
    /// The storing card's signature.
    pub signature: Signature,
}

impl StoreReceipt {
    /// Canonical byte encoding of the signed fields.
    pub fn message(file_id: &FileId, stored: u64, diverted: bool) -> Vec<u8> {
        let mut m = b"past-store-receipt-v1".to_vec();
        m.extend_from_slice(file_id.as_bytes());
        m.extend_from_slice(&stored.to_be_bytes());
        m.push(diverted as u8);
        m
    }

    /// Verifies the chain broker → storer card → receipt.
    pub fn verify(&self, broker: &PublicKey) -> bool {
        self.storer.verify(broker)
            && self.storer.card_key.verify(
                &Self::message(&self.file_id, self.stored, self.diverted),
                &self.signature,
            )
    }
}

/// A signed authorization to reclaim a file's storage.
#[derive(Clone, Copy, Debug)]
pub struct ReclaimCertificate {
    /// The file to reclaim.
    pub file_id: FileId,
    /// The owner card's credential (must match the file certificate's).
    pub owner: CardCert,
    /// The owner card's signature.
    pub signature: Signature,
}

impl ReclaimCertificate {
    /// Canonical byte encoding of the signed fields.
    pub fn message(file_id: &FileId) -> Vec<u8> {
        let mut m = b"past-reclaim-cert-v1".to_vec();
        m.extend_from_slice(file_id.as_bytes());
        m
    }

    /// Verifies the chain broker → owner card → certificate.
    pub fn verify(&self, broker: &PublicKey) -> bool {
        self.owner.verify(broker)
            && self
                .owner
                .card_key
                .verify(&Self::message(&self.file_id), &self.signature)
    }
}

/// A signed acknowledgment of reclaimed storage ("contains the reclaim
/// certificate and the amount of storage reclaimed").
#[derive(Clone, Copy, Debug)]
pub struct ReclaimReceipt {
    /// The reclaimed file.
    pub file_id: FileId,
    /// Bytes freed at the issuing node.
    pub freed: u64,
    /// The storing node card's credential.
    pub storer: CardCert,
    /// The storing card's signature.
    pub signature: Signature,
}

impl ReclaimReceipt {
    /// Canonical byte encoding of the signed fields.
    pub fn message(file_id: &FileId, freed: u64) -> Vec<u8> {
        let mut m = b"past-reclaim-receipt-v1".to_vec();
        m.extend_from_slice(file_id.as_bytes());
        m.extend_from_slice(&freed.to_be_bytes());
        m
    }

    /// Verifies the chain broker → storer card → receipt.
    pub fn verify(&self, broker: &PublicKey) -> bool {
        self.storer.verify(broker)
            && self
                .storer
                .card_key
                .verify(&Self::message(&self.file_id, self.freed), &self.signature)
    }
}

#[cfg(test)]
mod tests {
    use crate::broker::Broker;
    use crate::fileid::ContentRef;

    #[test]
    fn file_certificate_chain_verifies() {
        let mut broker = Broker::new(b"broker");
        let mut card = broker.issue_card(b"user", 10 << 20, 0);
        let content = ContentRef::from_bytes(b"payload");
        let cert = card
            .issue_file_certificate("f", &content, 3, 0, 42)
            .unwrap();
        assert!(cert.verify(&broker.public()));
    }

    #[test]
    fn tampered_certificate_rejected() {
        let mut broker = Broker::new(b"broker");
        let mut card = broker.issue_card(b"user", 10 << 20, 0);
        let content = ContentRef::from_bytes(b"payload");
        let mut cert = card
            .issue_file_certificate("f", &content, 3, 0, 42)
            .unwrap();
        cert.size += 1;
        assert!(!cert.verify(&broker.public()));
    }

    #[test]
    fn wrong_broker_rejected() {
        let mut broker = Broker::new(b"broker");
        let other = Broker::new(b"other");
        let mut card = broker.issue_card(b"user", 10 << 20, 0);
        let content = ContentRef::from_bytes(b"payload");
        let cert = card
            .issue_file_certificate("f", &content, 3, 0, 42)
            .unwrap();
        assert!(!cert.verify(&other.public()));
    }

    #[test]
    fn uncertified_card_rejected() {
        // A self-made card without broker certification cannot produce
        // verifiable certificates.
        let mut broker = Broker::new(b"broker");
        let card = broker.issue_card(b"user", 10 << 20, 0);
        let rogue_key = past_crypto::KeyPair::from_seed(b"rogue");
        let mut cc = card.credential();
        cc.card_key = rogue_key.public;
        assert!(!cc.verify(&broker.public()));
    }

    #[test]
    fn receipts_verify_and_detect_tampering() {
        let mut broker = Broker::new(b"broker");
        let mut owner = broker.issue_card(b"user", 10 << 20, 0);
        let storer = broker.issue_card(b"node", 0, 1 << 30);
        let content = ContentRef::from_bytes(b"x");
        let cert = owner
            .issue_file_certificate("f", &content, 1, 0, 1)
            .unwrap();
        let receipt = storer.issue_store_receipt(&cert.file_id, content.size, false);
        assert!(receipt.verify(&broker.public()));
        let mut bad = receipt;
        bad.stored += 7;
        assert!(!bad.verify(&broker.public()));

        let rcert = owner.issue_reclaim_certificate(&cert.file_id);
        assert!(rcert.verify(&broker.public()));
        let rr = storer.issue_reclaim_receipt(&cert.file_id, content.size);
        assert!(rr.verify(&broker.public()));
        let mut bad = rr;
        bad.freed = 0;
        assert!(!bad.verify(&broker.public()));
    }
}
