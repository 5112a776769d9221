//! Per-query result views.
//!
//! A view maintains the full ordered result set of one real-time query and
//! computes the *visible-window deltas* the client sees: applying a batch of
//! document changes yields exactly the added/modified/removed documents of
//! the query's (offset/limit-windowed) result set. Keeping the full set —
//! not just the window — is what lets a limited query backfill correctly
//! when a document leaves the window.

use firestore_core::matching::{apply_window, matches_document, order_key};
use firestore_core::observer::DocumentChange;
use firestore_core::{Document, DocumentName, Query};
use std::collections::{BTreeMap, HashMap};

/// The kind of a visible change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeKind {
    /// The document entered the visible result set.
    Added,
    /// The document stayed but its contents (or position) changed.
    Modified,
    /// The document left the visible result set.
    Removed,
}

/// One visible change.
#[derive(Clone, Debug, PartialEq)]
pub struct DocChangeEvent {
    /// What happened.
    pub kind: ChangeKind,
    /// The document (for `Removed`, its last visible version).
    pub doc: Document,
}

/// The materialized result set of one query.
#[derive(Debug)]
pub struct QueryView {
    query: Query,
    /// Full ordered result set: order key → document.
    result: BTreeMap<Vec<u8>, Document>,
    /// Document name → its current order key.
    by_name: HashMap<DocumentName, Vec<u8>>,
    /// The visible window last reported to the client.
    last_visible: Vec<Document>,
}

impl QueryView {
    /// Build a view seeded with the initial snapshot documents.
    pub fn new(query: Query, initial: Vec<Document>) -> QueryView {
        let mut view = QueryView {
            query,
            result: BTreeMap::new(),
            by_name: HashMap::new(),
            last_visible: Vec::new(),
        };
        for doc in initial {
            view.upsert(doc);
        }
        view.last_visible = view.visible();
        view
    }

    /// The query this view materializes.
    pub fn query(&self) -> &Query {
        &self.query
    }

    fn upsert(&mut self, doc: Document) {
        let Some(key) = order_key(&self.query, &doc) else {
            return;
        };
        if let Some(old_key) = self.by_name.insert(doc.name.clone(), key.clone()) {
            if old_key != key {
                self.result.remove(&old_key);
            }
        }
        self.result.insert(key, doc);
    }

    fn remove(&mut self, name: &DocumentName) {
        if let Some(key) = self.by_name.remove(name) {
            self.result.remove(&key);
        }
    }

    /// Total matching documents (ignoring the window).
    pub fn matched_len(&self) -> usize {
        self.result.len()
    }

    /// The visible result set as of the last delivered snapshot — exactly
    /// what the listener has seen (the consistency oracle digests this).
    pub fn last_visible(&self) -> &[Document] {
        &self.last_visible
    }

    /// The currently visible (offset/limit-windowed) result set, in order.
    pub fn visible(&self) -> Vec<Document> {
        apply_window(self.result.values(), self.query.offset, self.query.limit)
            .cloned()
            .collect()
    }

    /// Apply a batch of committed document changes and return the visible
    /// deltas (empty if the window is unaffected).
    pub fn apply(&mut self, changes: &[DocumentChange]) -> Vec<DocChangeEvent> {
        self.apply_refs(changes.iter())
    }

    /// [`QueryView::apply`] over borrowed changes — the fanout pipeline
    /// shares one `Arc<DocumentChange>` across every subscribed listener,
    /// so applying must not require an owned slice. Application is
    /// last-write-wins per document: only `change.new` and `change.name`
    /// are read, which is what makes per-flush coalescing (keeping only
    /// each document's final change) an equivalence, not an approximation.
    pub fn apply_refs<'a>(
        &mut self,
        changes: impl IntoIterator<Item = &'a DocumentChange>,
    ) -> Vec<DocChangeEvent> {
        for change in changes {
            match &change.new {
                Some(doc) if matches_document(&self.query, doc) => self.upsert(doc.clone()),
                _ => self.remove(&change.name),
            }
        }
        let visible = self.visible();
        let deltas = diff_visible(&self.last_visible, &visible);
        self.last_visible = visible;
        deltas
    }

    /// Replace the full result set with an authoritative snapshot and
    /// return the visible deltas relative to what the client last saw: the
    /// reconcile step of every listener (a changelog catch-up after a cache
    /// restart, an SDK reseed after a reconnect or a reset). A client whose
    /// view already matches the snapshot gets no events — convergence with
    /// no missed or duplicated notifications.
    pub fn catch_up(&mut self, authoritative: Vec<Document>) -> Vec<DocChangeEvent> {
        self.result.clear();
        self.by_name.clear();
        for doc in authoritative {
            if matches_document(&self.query, &doc) {
                self.upsert(doc);
            }
        }
        let visible = self.visible();
        let deltas = diff_visible(&self.last_visible, &visible);
        self.last_visible = visible;
        deltas
    }

    /// The initial `Added` events for the seeded snapshot.
    pub fn initial_events(&self) -> Vec<DocChangeEvent> {
        self.last_visible
            .iter()
            .map(|d| DocChangeEvent {
                kind: ChangeKind::Added,
                doc: d.clone(),
            })
            .collect()
    }
}

/// The one window diff: the events that turn the visible window `old` into
/// `new` — `Removed` in `old`'s order, then `Added`/`Modified` in `new`'s.
/// A document counts as modified when any part of it differs; for two
/// committed versions of one document that is the same test as comparing
/// their `update_time`.
fn diff_visible(old: &[Document], new: &[Document]) -> Vec<DocChangeEvent> {
    let old_by_name: HashMap<&DocumentName, &Document> = old.iter().map(|d| (&d.name, d)).collect();
    let new_by_name: HashMap<&DocumentName, &Document> = new.iter().map(|d| (&d.name, d)).collect();
    let mut out = Vec::new();
    for d in old {
        if !new_by_name.contains_key(&d.name) {
            out.push(DocChangeEvent {
                kind: ChangeKind::Removed,
                doc: d.clone(),
            });
        }
    }
    for d in new {
        match old_by_name.get(&d.name) {
            None => out.push(DocChangeEvent {
                kind: ChangeKind::Added,
                doc: d.clone(),
            }),
            Some(prev) if *prev != d => out.push(DocChangeEvent {
                kind: ChangeKind::Modified,
                doc: d.clone(),
            }),
            Some(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use firestore_core::{Direction, FilterOp, Value};

    fn doc(id: &str, rating: i64) -> Document {
        Document::new(
            DocumentName::parse(&format!("/restaurants/{id}")).unwrap(),
            [("rating", Value::Int(rating)), ("city", Value::from("SF"))],
        )
    }

    fn change(doc_after: Option<Document>, name: &str) -> DocumentChange {
        DocumentChange {
            name: DocumentName::parse(&format!("/restaurants/{name}")).unwrap(),
            old: None,
            new: doc_after,
        }
    }

    fn base_query() -> Query {
        Query::parse("/restaurants")
            .unwrap()
            .order_by("rating", Direction::Desc)
    }

    #[test]
    fn initial_snapshot_in_order() {
        let v = QueryView::new(base_query(), vec![doc("a", 1), doc("b", 9)]);
        let visible = v.visible();
        assert_eq!(visible.len(), 2);
        assert_eq!(
            visible[0].name.id(),
            "b",
            "desc order: highest rating first"
        );
        assert_eq!(v.initial_events().len(), 2);
    }

    #[test]
    fn add_modify_remove_deltas() {
        let mut v = QueryView::new(base_query(), vec![doc("a", 1)]);
        // Add.
        let deltas = v.apply(&[change(Some(doc("b", 5)), "b")]);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].kind, ChangeKind::Added);
        // Modify (rating change also reorders).
        let deltas = v.apply(&[change(Some(doc("a", 9)), "a")]);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].kind, ChangeKind::Modified);
        assert_eq!(v.visible()[0].name.id(), "a");
        // Remove (delete).
        let deltas = v.apply(&[change(None, "b")]);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].kind, ChangeKind::Removed);
        assert_eq!(deltas[0].doc.name.id(), "b");
    }

    #[test]
    fn update_that_stops_matching_is_removed() {
        let q = Query::parse("/restaurants")
            .unwrap()
            .filter("city", FilterOp::Eq, "SF");
        let mut v = QueryView::new(q, vec![doc("a", 1)]);
        // The document moves to NY: leaves the result set.
        let mut moved = doc("a", 1);
        moved.fields.insert("city".into(), Value::from("NY"));
        let deltas = v.apply(&[change(Some(moved), "a")]);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].kind, ChangeKind::Removed);
        assert_eq!(v.matched_len(), 0);
    }

    #[test]
    fn limit_window_backfills() {
        let q = base_query().limit(2);
        let mut v = QueryView::new(q, vec![doc("a", 9), doc("b", 8), doc("c", 7)]);
        // Visible: a, b. c is buffered beyond the window.
        assert_eq!(
            v.visible()
                .iter()
                .map(|d| d.name.id().to_string())
                .collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        // Deleting a pulls c into the window: Removed(a) + Added(c).
        let deltas = v.apply(&[change(None, "a")]);
        let kinds: Vec<ChangeKind> = deltas.iter().map(|d| d.kind).collect();
        assert!(kinds.contains(&ChangeKind::Removed));
        assert!(kinds.contains(&ChangeKind::Added));
        assert_eq!(
            v.visible()
                .iter()
                .map(|d| d.name.id().to_string())
                .collect::<Vec<_>>(),
            vec!["b", "c"]
        );
    }

    #[test]
    fn unaffected_window_emits_nothing() {
        let q = base_query().limit(1);
        let mut v = QueryView::new(q, vec![doc("a", 9), doc("b", 8)]);
        // A change below the window: no visible delta.
        let deltas = v.apply(&[change(Some(doc("b", 7)), "b")]);
        assert!(deltas.is_empty());
        // But the underlying set tracked it.
        assert_eq!(v.matched_len(), 2);
    }

    #[test]
    fn non_matching_insert_ignored() {
        let q = Query::parse("/restaurants")
            .unwrap()
            .filter("city", FilterOp::Eq, "SF");
        let mut v = QueryView::new(q, vec![]);
        let mut ny = doc("x", 3);
        ny.fields.insert("city".into(), Value::from("NY"));
        let deltas = v.apply(&[change(Some(ny), "x")]);
        assert!(deltas.is_empty());
    }

    #[test]
    fn idempotent_redelivery_is_harmless() {
        let mut v = QueryView::new(base_query(), vec![]);
        let c = change(Some(doc("a", 5)), "a");
        let first = v.apply(std::slice::from_ref(&c));
        assert_eq!(first.len(), 1);
        let second = v.apply(std::slice::from_ref(&c));
        assert!(
            second.is_empty(),
            "same change re-applied produces no delta"
        );
    }
}
