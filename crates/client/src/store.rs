//! The local cache: server state + pending mutation overlay.
//!
//! The store keeps (a) the latest *server* version of every document the
//! client has seen and (b) the ordered queue of *pending* mutations the
//! client has issued but the service has not acknowledged. The merged view
//! — pending mutations applied over server state — is what every local read
//! and listener sees (latency compensation, §IV-E).

use firestore_core::{Document, DocumentName, Value, Write, WriteOp};
use simkit::Timestamp;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide session allocator: each store (one per client instance)
/// gets a distinct session id, so idempotent write ids (`session:mutation`)
/// never collide across clients sharing a database.
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// Magic prefix of the v2 persistence format. Legacy (v1) blobs start with
/// a big-endian document count instead, which realistic caches never push
/// past this value.
const PERSIST_MAGIC: [u8; 4] = *b"FSLC";
/// Current persistence format version.
const PERSIST_VERSION: u8 = 2;

/// One unacknowledged local mutation.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingMutation {
    /// Client-assigned sequence number (flush order).
    pub id: u64,
    /// The blind write ("last update wins", §III-E).
    pub write: Write,
}

/// Cached knowledge about one document's server state.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerEntry {
    /// The document existed with these contents at the cached version.
    Exists(Document),
    /// The server confirmed the document does not exist.
    Missing,
}

/// The client-side cache.
#[derive(Debug)]
pub struct LocalStore {
    server: HashMap<DocumentName, ServerEntry>,
    pending: BTreeMap<u64, PendingMutation>,
    next_mutation: u64,
    /// Scopes this store's mutation ids into globally-unique idempotent
    /// write ids. Survives persistence so a flush retried after a client
    /// restart dedups against commits from before the restart.
    session: u64,
}

impl Default for LocalStore {
    fn default() -> Self {
        LocalStore {
            server: HashMap::new(),
            pending: BTreeMap::new(),
            next_mutation: 0,
            session: NEXT_SESSION.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl LocalStore {
    /// Empty store.
    pub fn new() -> Self {
        LocalStore::default()
    }

    /// The session id scoping this store's idempotent write ids.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Record the server's version of a document.
    pub fn apply_server(&mut self, name: DocumentName, doc: Option<Document>) {
        let entry = match doc {
            Some(d) => ServerEntry::Exists(d),
            None => ServerEntry::Missing,
        };
        self.server.insert(name, entry);
    }

    /// The cached server version, if known.
    pub fn server_doc(&self, name: &DocumentName) -> Option<&ServerEntry> {
        self.server.get(name)
    }

    /// Enqueue a local mutation; returns its id.
    pub fn enqueue(&mut self, write: Write) -> u64 {
        let id = self.next_mutation;
        self.next_mutation += 1;
        self.pending.insert(id, PendingMutation { id, write });
        id
    }

    /// Remove an acknowledged (or rejected) mutation.
    pub fn remove_pending(&mut self, id: u64) -> Option<PendingMutation> {
        self.pending.remove(&id)
    }

    /// Pending mutations in flush order.
    pub fn pending(&self) -> impl Iterator<Item = &PendingMutation> {
        self.pending.values()
    }

    /// Number of pending mutations.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the document has pending local writes.
    pub fn has_pending_for(&self, name: &DocumentName) -> bool {
        self.pending.values().any(|p| p.write.op.name() == name)
    }

    /// The merged (latency-compensated) view of one document: pending
    /// mutations applied in order over the cached server state. Returns
    /// `None` when nothing at all is known, `Some(None)` for known-absent.
    pub fn merged_doc(&self, name: &DocumentName) -> Option<Option<Document>> {
        let mut state: Option<Option<Document>> = match self.server.get(name) {
            Some(ServerEntry::Exists(d)) => Some(Some(d.clone())),
            Some(ServerEntry::Missing) => Some(None),
            None => None,
        };
        for p in self.pending.values() {
            if p.write.op.name() != name {
                continue;
            }
            state = Some(match &p.write.op {
                WriteOp::Set { fields, .. } => {
                    let mut d = Document::new(name.clone(), fields.clone());
                    // Local writes carry a provisional local timestamp of
                    // zero; server acknowledgement replaces it.
                    d.update_time = Timestamp::ZERO;
                    Some(d)
                }
                WriteOp::Merge { fields, .. } => {
                    let mut merged = match state.flatten() {
                        Some(d) => d.fields,
                        None => Default::default(),
                    };
                    for (k, v) in fields {
                        merged.insert(k.clone(), v.clone());
                    }
                    let mut d = Document::new(name.clone(), merged.into_iter().collect::<Vec<_>>());
                    d.update_time = Timestamp::ZERO;
                    Some(d)
                }
                WriteOp::Delete { .. } => None,
                WriteOp::Verify { .. } => continue,
            });
        }
        state
    }

    /// All names with any cached or pending state (for local query scans).
    pub fn known_names(&self) -> Vec<DocumentName> {
        let mut names: Vec<DocumentName> = self.server.keys().cloned().collect();
        for p in self.pending.values() {
            let n = p.write.op.name();
            if !names.contains(n) {
                names.push(n.clone());
            }
        }
        names
    }

    /// Serialize the *server* cache for opt-in persistence ("an end user
    /// can choose to persist their local cache", §IV-E). Pending mutations
    /// are persisted too — with their session-scoped mutation ids — so
    /// queued writes survive restarts *and* keep their idempotent write
    /// ids: a flush that straddles a client restart dedups against any
    /// pre-restart commit instead of double-applying.
    pub fn persist(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&PERSIST_MAGIC);
        out.push(PERSIST_VERSION);
        out.extend_from_slice(&self.session.to_be_bytes());
        out.extend_from_slice(&self.next_mutation.to_be_bytes());
        let docs: Vec<(&DocumentName, &ServerEntry)> = self.server.iter().collect();
        out.extend_from_slice(&(docs.len() as u32).to_be_bytes());
        for (name, entry) in docs {
            let name_enc = name.encode();
            out.extend_from_slice(&(name_enc.len() as u32).to_be_bytes());
            out.extend_from_slice(&name_enc);
            match entry {
                ServerEntry::Missing => out.extend_from_slice(&u32::MAX.to_be_bytes()),
                ServerEntry::Exists(d) => {
                    let bytes = d.encode();
                    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
                    out.extend_from_slice(&bytes);
                }
            }
        }
        let pending: Vec<&PendingMutation> = self.pending.values().collect();
        out.extend_from_slice(&(pending.len() as u32).to_be_bytes());
        for p in pending {
            out.extend_from_slice(&p.id.to_be_bytes());
            let name_enc = p.write.op.name().encode();
            out.extend_from_slice(&(name_enc.len() as u32).to_be_bytes());
            out.extend_from_slice(&name_enc);
            match &p.write.op {
                WriteOp::Delete { .. } | WriteOp::Verify { .. } => {
                    out.extend_from_slice(&u32::MAX.to_be_bytes())
                }
                // Merges persist as their merged-at-persist-time contents
                // (full-set replay is equivalent for the local overlay).
                WriteOp::Set { fields, .. } | WriteOp::Merge { fields, .. } => {
                    let doc = Document::new(p.write.op.name().clone(), fields.clone());
                    let bytes = doc.encode();
                    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
                    out.extend_from_slice(&bytes);
                }
            }
        }
        out
    }

    /// Restore a persisted cache (warm start) from the v2 format (magic
    /// header, session id, stable mutation ids); `None` for anything else.
    pub fn restore(bytes: &[u8]) -> Option<LocalStore> {
        let body = bytes
            .strip_prefix(&PERSIST_MAGIC)?
            .strip_prefix(&[PERSIST_VERSION])?;
        LocalStore::restore_v2(body)
    }

    fn restore_v2(bytes: &[u8]) -> Option<LocalStore> {
        let mut store = LocalStore::new();
        let mut pos = 0usize;
        store.session = read_u64(bytes, &mut pos)?;
        // Reserve the adopted session in the process-wide allocator: a
        // blob can carry a session the allocator has not issued yet (fresh
        // process), and a later `LocalStore::new` must not collide with it
        // — colliding `client-{session}:{id}` dedup ids would let one
        // client's flush ack against another's ledger row.
        NEXT_SESSION.fetch_max(store.session.saturating_add(1), Ordering::Relaxed);
        store.next_mutation = read_u64(bytes, &mut pos)?;
        let n_docs = read_u32(bytes, &mut pos)?;
        for _ in 0..n_docs {
            let (name, entry) = read_server_entry(bytes, &mut pos)?;
            store.server.insert(name, entry);
        }
        let n_pending = read_u32(bytes, &mut pos)?;
        for _ in 0..n_pending {
            let id = read_u64(bytes, &mut pos)?;
            if id >= store.next_mutation {
                return None; // ids must precede the allocator watermark
            }
            let write = read_pending_write(bytes, &mut pos)?;
            store.pending.insert(id, PendingMutation { id, write });
        }
        if pos != bytes.len() {
            return None;
        }
        Some(store)
    }
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let raw = bytes.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_be_bytes(raw.try_into().ok()?))
}

fn read_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let raw = bytes.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_be_bytes(raw.try_into().ok()?))
}

fn read_server_entry(bytes: &[u8], pos: &mut usize) -> Option<(DocumentName, ServerEntry)> {
    let name_len = read_u32(bytes, pos)? as usize;
    let name = DocumentName::decode(bytes.get(*pos..*pos + name_len)?)?;
    *pos += name_len;
    let doc_len = read_u32(bytes, pos)?;
    if doc_len == u32::MAX {
        Some((name, ServerEntry::Missing))
    } else {
        let doc_len = doc_len as usize;
        let doc = Document::decode(name.clone(), bytes.get(*pos..*pos + doc_len)?)?;
        *pos += doc_len;
        Some((name, ServerEntry::Exists(doc)))
    }
}

fn read_pending_write(bytes: &[u8], pos: &mut usize) -> Option<Write> {
    let name_len = read_u32(bytes, pos)? as usize;
    let name = DocumentName::decode(bytes.get(*pos..*pos + name_len)?)?;
    *pos += name_len;
    let doc_len = read_u32(bytes, pos)?;
    if doc_len == u32::MAX {
        Some(Write::delete(name))
    } else {
        let doc_len = doc_len as usize;
        let doc = Document::decode(name.clone(), bytes.get(*pos..*pos + doc_len)?)?;
        *pos += doc_len;
        let fields: Vec<(String, Value)> = doc.fields.into_iter().collect();
        Some(Write::set(name, fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(p: &str) -> DocumentName {
        DocumentName::parse(p).unwrap()
    }

    fn doc(p: &str, v: i64) -> Document {
        Document::new(name(p), [("v", Value::Int(v))])
    }

    #[test]
    fn merged_view_prefers_pending() {
        let mut s = LocalStore::new();
        s.apply_server(name("/c/d"), Some(doc("/c/d", 1)));
        assert_eq!(
            s.merged_doc(&name("/c/d")).unwrap().unwrap().fields["v"],
            Value::Int(1)
        );
        s.enqueue(Write::set(name("/c/d"), [("v", Value::Int(2))]));
        assert_eq!(
            s.merged_doc(&name("/c/d")).unwrap().unwrap().fields["v"],
            Value::Int(2)
        );
        assert!(s.has_pending_for(&name("/c/d")));
    }

    #[test]
    fn pending_delete_hides_document() {
        let mut s = LocalStore::new();
        s.apply_server(name("/c/d"), Some(doc("/c/d", 1)));
        s.enqueue(Write::delete(name("/c/d")));
        assert_eq!(s.merged_doc(&name("/c/d")), Some(None));
    }

    #[test]
    fn pending_applied_in_order() {
        let mut s = LocalStore::new();
        s.enqueue(Write::set(name("/c/d"), [("v", Value::Int(1))]));
        s.enqueue(Write::delete(name("/c/d")));
        s.enqueue(Write::set(name("/c/d"), [("v", Value::Int(3))]));
        assert_eq!(
            s.merged_doc(&name("/c/d")).unwrap().unwrap().fields["v"],
            Value::Int(3)
        );
        assert_eq!(s.pending_len(), 3);
    }

    #[test]
    fn unknown_document_is_none() {
        let s = LocalStore::new();
        assert_eq!(s.merged_doc(&name("/c/d")), None);
    }

    #[test]
    fn ack_removes_pending_and_keeps_server_state() {
        let mut s = LocalStore::new();
        let id = s.enqueue(Write::set(name("/c/d"), [("v", Value::Int(2))]));
        // Server acks: record server state, drop pending.
        let mut acked = doc("/c/d", 2);
        acked.update_time = Timestamp::from_millis(9);
        s.apply_server(name("/c/d"), Some(acked));
        s.remove_pending(id);
        let merged = s.merged_doc(&name("/c/d")).unwrap().unwrap();
        assert_eq!(merged.update_time, Timestamp::from_millis(9));
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn known_names_includes_pending_only_docs() {
        let mut s = LocalStore::new();
        s.apply_server(name("/c/a"), Some(doc("/c/a", 1)));
        s.enqueue(Write::set(name("/c/b"), [("v", Value::Int(2))]));
        let names = s.known_names();
        assert!(names.contains(&name("/c/a")));
        assert!(names.contains(&name("/c/b")));
    }

    #[test]
    fn persist_restore_round_trip() {
        let mut s = LocalStore::new();
        s.apply_server(name("/c/a"), Some(doc("/c/a", 1)));
        s.apply_server(name("/c/gone"), None);
        s.enqueue(Write::set(name("/c/b"), [("v", Value::Int(2))]));
        s.enqueue(Write::delete(name("/c/a")));
        let bytes = s.persist();
        let restored = LocalStore::restore(&bytes).unwrap();
        assert_eq!(restored.pending_len(), 2);
        assert_eq!(
            restored.merged_doc(&name("/c/a")),
            Some(None),
            "pending delete"
        );
        assert_eq!(
            restored.merged_doc(&name("/c/b")).unwrap().unwrap().fields["v"],
            Value::Int(2)
        );
        assert_eq!(restored.merged_doc(&name("/c/gone")), Some(None));
        // Truncated blobs are rejected.
        assert!(LocalStore::restore(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn persist_preserves_session_and_mutation_ids() {
        let mut s = LocalStore::new();
        let first = s.enqueue(Write::set(name("/c/a"), [("v", Value::Int(1))]));
        let second = s.enqueue(Write::set(name("/c/b"), [("v", Value::Int(2))]));
        s.remove_pending(first);
        let restored = LocalStore::restore(&s.persist()).unwrap();
        assert_eq!(restored.session_id(), s.session_id());
        let ids: Vec<u64> = restored.pending().map(|p| p.id).collect();
        assert_eq!(ids, vec![second], "surviving mutation keeps its id");
        // The allocator watermark survives too: new mutations never reuse
        // an id that may already sit in the server's dedup ledger.
        let mut restored = restored;
        let next = restored.enqueue(Write::delete(name("/c/b")));
        assert_eq!(next, second + 1);
    }

    #[test]
    fn restored_session_is_reserved_in_the_allocator() {
        // Craft a blob carrying a session far past anything this process has
        // issued (a fresh process restoring another machine's cache): the
        // session field sits right after the 4-byte magic + version byte.
        let s = LocalStore::new();
        let mut blob = s.persist();
        let foreign = u32::MAX as u64 + 17;
        blob[5..13].copy_from_slice(&foreign.to_be_bytes());
        let restored = LocalStore::restore(&blob).unwrap();
        assert_eq!(restored.session_id(), foreign);
        // A new store must never be handed the restored session — colliding
        // sessions would collide idempotent write ids across clients.
        assert!(LocalStore::new().session_id() > foreign);
    }

    #[test]
    fn blob_without_header_is_rejected() {
        // Hand-encode the headerless layout v2 replaced: no docs, one
        // pending delete. Nothing writes it any more, so it does not
        // restore.
        let mut blob = Vec::new();
        blob.extend_from_slice(&0u32.to_be_bytes());
        blob.extend_from_slice(&1u32.to_be_bytes());
        let name_enc = name("/c/d").encode();
        blob.extend_from_slice(&(name_enc.len() as u32).to_be_bytes());
        blob.extend_from_slice(&name_enc);
        blob.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(LocalStore::restore(&blob).is_none());
    }

    #[test]
    fn v2_rejects_id_at_or_past_watermark() {
        let mut s = LocalStore::new();
        s.enqueue(Write::delete(name("/c/d")));
        let mut blob = s.persist();
        // Corrupt the persisted next_mutation down to zero: the pending
        // id (0) is no longer below the watermark.
        let at = PERSIST_MAGIC.len() + 1 + 8;
        blob[at..at + 8].copy_from_slice(&0u64.to_be_bytes());
        assert!(LocalStore::restore(&blob).is_none());
    }
}
