//! Client-side snapshot listeners.
//!
//! A listener materializes a query over the *merged* local view (server
//! state + pending mutations), emitting `onSnapshot`-style deltas. "The
//! direct update of displayed state based on the results of real-time
//! queries greatly simplifies application development" (§III-E): the same
//! listener fires for remote changes, for this client's own (not yet
//! acknowledged) writes, and for post-reconnect reconciliation.

use crate::store::LocalStore;
use firestore_core::matching::{apply_window, matches_document, order_key};
use firestore_core::observer::DocumentChange;
use firestore_core::{Document, DocumentName, Query};
use realtime::view::QueryView;
pub use realtime::view::{ChangeKind, DocChangeEvent};

/// A listener registration id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ListenerId(pub u64);

/// One snapshot delivered to the application.
#[derive(Clone, Debug)]
pub struct ClientSnapshot {
    /// The listener this snapshot belongs to.
    pub listener: ListenerId,
    /// Deltas since the previous snapshot.
    pub changes: Vec<DocChangeEvent>,
    /// The full current (windowed) result set, in query order.
    pub documents: Vec<Document>,
    /// True when served purely from the local cache (device offline or
    /// latency-compensated local write not yet acknowledged).
    pub from_cache: bool,
}

/// The state of one registered listener.
pub struct ListenerState {
    /// Id.
    pub id: ListenerId,
    /// The listened query.
    pub query: Query,
    /// Materialized merged view.
    pub view: QueryView,
    /// Server-side real-time query id while connected.
    pub server_query: Option<realtime::QueryId>,
    /// Queued snapshots awaiting the application's poll.
    pub out: Vec<ClientSnapshot>,
}

impl ListenerState {
    /// Build a listener over the current merged store contents.
    pub fn new(id: ListenerId, query: Query, store: &LocalStore) -> ListenerState {
        let initial = local_matches(&query, store);
        let view = QueryView::new(query.clone(), initial);
        ListenerState {
            id,
            query,
            view,
            server_query: None,
            out: Vec::new(),
        }
    }

    /// Emit the initial snapshot.
    pub fn emit_initial(&mut self, from_cache: bool) {
        let snapshot = ClientSnapshot {
            listener: self.id,
            changes: self.view.initial_events(),
            documents: self.view.visible(),
            from_cache,
        };
        self.out.push(snapshot);
    }

    /// Apply merged-view changes for the given names and queue a snapshot
    /// if the visible window changed.
    pub fn apply_names(&mut self, names: &[DocumentName], store: &LocalStore, from_cache: bool) {
        let changes: Vec<DocumentChange> = names
            .iter()
            .map(|n| DocumentChange {
                name: n.clone(),
                old: None,
                new: store.merged_doc(n).flatten(),
            })
            .collect();
        let deltas = self.view.apply(&changes);
        self.push(deltas, from_cache);
    }

    /// Reconcile the view with the merged store after a re-seed
    /// ([`QueryView::catch_up`]) and queue a snapshot of the window's
    /// deltas, if there are any.
    pub fn reconcile(&mut self, store: &LocalStore) {
        let deltas = self.view.catch_up(local_matches(&self.query, store));
        self.push(deltas, false);
    }

    fn push(&mut self, changes: Vec<DocChangeEvent>, from_cache: bool) {
        if !changes.is_empty() {
            self.out.push(ClientSnapshot {
                listener: self.id,
                changes,
                documents: self.view.visible(),
                from_cache,
            });
        }
    }

    /// Drain queued snapshots.
    pub fn take(&mut self) -> Vec<ClientSnapshot> {
        std::mem::take(&mut self.out)
    }
}

/// Execute `query` against the merged local store (the SDK's local query
/// engine over its local indexes, §IV-E). Results are windowed.
pub fn local_results(query: &Query, store: &LocalStore) -> Vec<Document> {
    apply_window(local_matches(query, store), query.offset, query.limit).collect()
}

/// The first `offset + limit` local matches of `query` in query order,
/// with the offset not yet skipped: a listener's view is seeded with
/// these, and the view applies the window itself.
fn local_matches(query: &Query, store: &LocalStore) -> Vec<Document> {
    let mut matched: Vec<(Vec<u8>, Document)> = Vec::new();
    for name in store.known_names() {
        if let Some(Some(doc)) = store.merged_doc(&name) {
            if matches_document(query, &doc) {
                if let Some(key) = order_key(query, &doc) {
                    matched.push((key, doc));
                }
            }
        }
    }
    matched.sort_by(|a, b| a.0.cmp(&b.0));
    let reach = query.limit.map(|limit| query.offset.saturating_add(limit));
    apply_window(matched.into_iter().map(|(_, d)| d), 0, reach).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use firestore_core::{Direction, Value, Write};

    fn name(p: &str) -> DocumentName {
        DocumentName::parse(p).unwrap()
    }

    fn doc(p: &str, v: i64) -> Document {
        Document::new(name(p), [("v", Value::Int(v))])
    }

    #[test]
    fn local_results_merge_server_and_pending() {
        let mut store = LocalStore::new();
        store.apply_server(name("/c/a"), Some(doc("/c/a", 1)));
        store.enqueue(Write::set(name("/c/b"), [("v", Value::Int(9))]));
        let q = Query::parse("/c").unwrap().order_by("v", Direction::Desc);
        let results = local_results(&q, &store);
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].name.id(),
            "b",
            "pending write visible and sorted"
        );
    }

    #[test]
    fn local_results_window() {
        let mut store = LocalStore::new();
        for i in 0..5 {
            store.apply_server(name(&format!("/c/d{i}")), Some(doc(&format!("/c/d{i}"), i)));
        }
        let q = Query::parse("/c")
            .unwrap()
            .order_by("v", Direction::Asc)
            .limit(2)
            .offset(1);
        let results = local_results(&q, &store);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].fields["v"], Value::Int(1));
    }

    #[test]
    fn listener_emits_on_local_change() {
        let mut store = LocalStore::new();
        store.apply_server(name("/c/a"), Some(doc("/c/a", 1)));
        let q = Query::parse("/c").unwrap();
        let mut l = ListenerState::new(ListenerId(1), q, &store);
        l.emit_initial(true);
        let initial = l.take();
        assert_eq!(initial.len(), 1);
        assert_eq!(initial[0].documents.len(), 1);
        assert!(initial[0].from_cache);

        // A pending local write fires the listener.
        store.enqueue(Write::set(name("/c/b"), [("v", Value::Int(2))]));
        l.apply_names(&[name("/c/b")], &store, true);
        let snaps = l.take();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].changes.len(), 1);
        assert_eq!(snaps[0].changes[0].kind, ChangeKind::Added);
        assert_eq!(snaps[0].documents.len(), 2);
    }

    #[test]
    fn unaffected_names_emit_nothing() {
        let mut store = LocalStore::new();
        store.apply_server(name("/c/a"), Some(doc("/c/a", 1)));
        let q = Query::parse("/c").unwrap();
        let mut l = ListenerState::new(ListenerId(1), q, &store);
        l.emit_initial(true);
        l.take();
        store.apply_server(name("/other/x"), Some(doc("/other/x", 1)));
        l.apply_names(&[name("/other/x")], &store, false);
        assert!(l.take().is_empty());
    }
}
