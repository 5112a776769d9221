//! Index definitions and index-entry computation.
//!
//! "To reduce the burden of index management, Firestore automatically
//! defines an ascending and descending index on each field across all
//! documents" (§III-B); customers can exempt hot or never-queried fields and
//! define composite indexes across multiple fields.
//!
//! Every index entry is one row of the `IndexEntries` table keyed
//! `(index-id, values, name)` (§IV-D1). This module computes the entry keys
//! a document produces:
//!
//! * one entry per (auto-indexed) field — including dotted sub-fields of
//!   maps — holding the whole value's order-preserving encoding,
//! * for array fields, additionally one *element* entry per array element
//!   (the flattening of §V-B2), marked with a tag byte so element entries
//!   serve `array-contains` without colliding with whole-value equality,
//! * one entry per matching composite index whose fields are all present.
//!
//! The descending "automatic" direction is served by *reverse scans* of the
//! ascending entries rather than duplicate rows; only composite indexes
//! store direction-encoded values. This halves write amplification and is
//! how production Firestore serves single-field descending orders.

use crate::document::{Document, Value};
use crate::encoding::{encode_value, encode_value_asc, Direction};
use crate::path::DocumentName;
use spanner::database::DirectoryId;
use spanner::Key;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Marker byte distinguishing array-element entries from whole-value
/// entries. Chosen above every value type tag so element entries sort after
/// all whole-value entries of the same index.
pub const ARRAY_ELEMENT_TAG: u8 = 0x7E;

/// An index identifier, unique per Firestore database.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IndexId(pub u64);

/// Lifecycle state of an index (composite indexes go through a backfill,
/// §IV-D1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexState {
    /// Entries are being backfilled; writes maintain the index but queries
    /// cannot use it yet.
    Building,
    /// Fully built and queryable.
    Ready,
    /// Being removed; writes no longer maintain it.
    Removing,
}

/// One field of a composite index.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct IndexedField {
    /// Dot-separated field path.
    pub path: String,
    /// Sort direction of this field in the index.
    pub direction: Direction,
}

impl IndexedField {
    /// Ascending field.
    pub fn asc(path: impl Into<String>) -> Self {
        IndexedField {
            path: path.into(),
            direction: Direction::Asc,
        }
    }

    /// Descending field.
    pub fn desc(path: impl Into<String>) -> Self {
        IndexedField {
            path: path.into(),
            direction: Direction::Desc,
        }
    }
}

/// A user-defined composite index over a collection id.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexDefinition {
    /// Assigned id.
    pub id: IndexId,
    /// The collection id this index applies to (e.g. `restaurants`; like
    /// production Firestore, it applies to every collection with that id
    /// anywhere in the hierarchy).
    pub collection_id: String,
    /// Indexed fields, in index order.
    pub fields: Vec<IndexedField>,
    /// Lifecycle state.
    pub state: IndexState,
}

/// The per-database index catalog: automatic single-field indexes (with
/// exemptions) plus user-defined composite indexes.
#[derive(Debug, Default)]
pub struct IndexCatalog {
    next_id: u64,
    /// Composite definitions by id.
    composites: BTreeMap<IndexId, IndexDefinition>,
    /// Lazily allocated ids for automatic single-field indexes, keyed by
    /// (collection id, field path).
    auto_ids: HashMap<(String, String), IndexId>,
    /// Exempted (collection id, field path) pairs (§III-B: "Firestore
    /// allows the customer to specify fields to exclude from automatic
    /// indexing").
    exemptions: HashSet<(String, String)>,
}

impl IndexCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        IndexCatalog::default()
    }

    /// Exempt a field of a collection from automatic indexing.
    pub fn add_exemption(&mut self, collection_id: &str, field: &str) {
        self.exemptions
            .insert((collection_id.to_string(), field.to_string()));
    }

    /// Whether the field is exempt from automatic indexing.
    pub fn is_exempt(&self, collection_id: &str, field: &str) -> bool {
        self.exemptions
            .contains(&(collection_id.to_string(), field.to_string()))
    }

    /// Register a composite index in the given initial state; returns its
    /// id.
    pub fn add_composite(
        &mut self,
        collection_id: &str,
        fields: Vec<IndexedField>,
        state: IndexState,
    ) -> IndexId {
        let id = IndexId(self.next_id);
        self.next_id += 1;
        self.composites.insert(
            id,
            IndexDefinition {
                id,
                collection_id: collection_id.to_string(),
                fields,
                state,
            },
        );
        id
    }

    /// Change an index's state; true if it existed.
    pub fn set_state(&mut self, id: IndexId, state: IndexState) -> bool {
        if let Some(def) = self.composites.get_mut(&id) {
            def.state = state;
            true
        } else {
            false
        }
    }

    /// Drop an index definition entirely.
    pub fn remove(&mut self, id: IndexId) -> Option<IndexDefinition> {
        self.composites.remove(&id)
    }

    /// Look up a composite definition.
    pub fn composite(&self, id: IndexId) -> Option<&IndexDefinition> {
        self.composites.get(&id)
    }

    /// All composite definitions for a collection id in the given states.
    pub fn composites_for(
        &self,
        collection_id: &str,
        states: &[IndexState],
    ) -> Vec<&IndexDefinition> {
        self.composites
            .values()
            .filter(|d| d.collection_id == collection_id && states.contains(&d.state))
            .collect()
    }

    /// The id of the automatic single-field (ascending) index for
    /// `(collection_id, field)`, allocating it on first use. Returns `None`
    /// for exempted fields.
    pub fn auto_index_id(&mut self, collection_id: &str, field: &str) -> Option<IndexId> {
        if self.is_exempt(collection_id, field) {
            return None;
        }
        let key = (collection_id.to_string(), field.to_string());
        Some(*self.auto_ids.entry(key).or_insert_with(|| {
            let id = IndexId(self.next_id);
            self.next_id += 1;
            id
        }))
    }

    /// Reverse lookup for EXPLAIN output: a human-readable description of an
    /// index id — the composite's field list, or `auto <collection>.<field>`
    /// for an automatic single-field index. `None` for unknown ids.
    pub fn describe(&self, id: IndexId) -> Option<String> {
        if let Some(def) = self.composites.get(&id) {
            let fields: Vec<String> = def
                .fields
                .iter()
                .map(|f| {
                    let d = match f.direction {
                        Direction::Asc => "asc",
                        Direction::Desc => "desc",
                    };
                    format!("{} {d}", f.path)
                })
                .collect();
            return Some(format!(
                "composite on {}: {}",
                def.collection_id,
                fields.join(", ")
            ));
        }
        self.auto_ids
            .iter()
            .find(|(_, v)| **v == id)
            .map(|((coll, field), _)| format!("auto {coll}.{field}"))
    }
}

/// Expand a document into `(dotted field path, value)` pairs: top-level
/// fields plus nested map sub-fields (maps are flattened, §V-B2).
pub fn expand_fields(doc: &Document) -> Vec<(String, &Value)> {
    let mut out = Vec::with_capacity(doc.fields.len());
    fn recurse<'a>(prefix: &str, v: &'a Value, out: &mut Vec<(String, &'a Value)>) {
        out.push((prefix.to_string(), v));
        if let Value::Map(m) = v {
            for (k, inner) in m {
                recurse(&format!("{prefix}.{k}"), inner, out);
            }
        }
    }
    for (k, v) in &doc.fields {
        recurse(k, v, &mut out);
    }
    out
}

/// Build the `IndexEntries` row key for `(directory, index, value bytes,
/// document)`. `name_dir` is the direction the implicit `__name__` tiebreak
/// is stored in: it must follow the index's *last* field so a scan yields
/// the query's name-tiebreak order in both scan directions (for an index
/// `(city asc, rating desc)`, a forward scan must produce `rating desc,
/// name desc` — the order `matching::order_key` defines).
pub fn entry_key(
    dir: DirectoryId,
    index: IndexId,
    value_bytes: &[u8],
    name: &DocumentName,
    name_dir: Direction,
) -> Key {
    let name_enc = name.encode();
    let mut v = Vec::with_capacity(4 + 8 + value_bytes.len() + name_enc.len());
    v.extend_from_slice(&dir.prefix());
    v.extend_from_slice(&index.0.to_be_bytes());
    v.extend_from_slice(value_bytes);
    match name_dir {
        Direction::Asc => v.extend_from_slice(&name_enc),
        Direction::Desc => v.extend(name_enc.iter().map(|b| !b)),
    }
    Key::from(v)
}

/// The key prefix shared by every entry of one index.
pub fn index_prefix(dir: DirectoryId, index: IndexId) -> Vec<u8> {
    let mut v = Vec::with_capacity(12);
    v.extend_from_slice(&dir.prefix());
    v.extend_from_slice(&index.0.to_be_bytes());
    v
}

/// Compute all index-entry keys for `doc`. `maintained_states` controls
/// which composite states produce entries (writes maintain `Building` +
/// `Ready`; queries only use `Ready`).
pub fn entries_for_document(
    catalog: &mut IndexCatalog,
    dir: DirectoryId,
    doc: &Document,
    maintained_states: &[IndexState],
) -> Vec<Key> {
    entries_for_document_tagged(catalog, dir, doc, maintained_states)
        .into_iter()
        .map(|(_, k)| k)
        .collect()
}

/// [`entries_for_document`] with each key tagged by its owning index id —
/// the write path uses the tags to attribute per-index maintenance cost
/// (§III-C: every write maintains every applicable index).
pub fn entries_for_document_tagged(
    catalog: &mut IndexCatalog,
    dir: DirectoryId,
    doc: &Document,
    maintained_states: &[IndexState],
) -> Vec<(IndexId, Key)> {
    let collection_id = doc.name.collection_id().to_string();
    let mut keys = Vec::new();

    // Automatic single-field (ascending) indexes.
    for (path, value) in expand_fields(doc) {
        let Some(index) = catalog.auto_index_id(&collection_id, &path) else {
            continue;
        };
        let mut value_bytes = Vec::new();
        encode_value_asc(value, &mut value_bytes);
        keys.push((
            index,
            entry_key(dir, index, &value_bytes, &doc.name, Direction::Asc),
        ));
        if let Value::Array(items) = value {
            // Element entries for array-contains (§V-B2 flattening).
            for item in items {
                let mut elem_bytes = vec![ARRAY_ELEMENT_TAG];
                encode_value_asc(item, &mut elem_bytes);
                keys.push((
                    index,
                    entry_key(dir, index, &elem_bytes, &doc.name, Direction::Asc),
                ));
            }
        }
    }

    // Composite indexes: a document appears only if every indexed field is
    // present.
    for def in catalog.composites_for(&collection_id, maintained_states) {
        let mut tuple = Vec::new();
        let mut complete = true;
        for f in &def.fields {
            match doc.get(&f.path) {
                Some(v) => encode_value(v, f.direction, &mut tuple),
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if complete {
            let name_dir = def.fields.last().expect("composite has fields").direction;
            keys.push((def.id, entry_key(dir, def.id, &tuple, &doc.name, name_dir)));
        }
    }
    keys
}

/// The index-entry diff of a document change: `(removals, additions)`.
pub fn entry_diff(
    catalog: &mut IndexCatalog,
    dir: DirectoryId,
    old: Option<&Document>,
    new: Option<&Document>,
    maintained_states: &[IndexState],
) -> (Vec<Key>, Vec<Key>) {
    let old_keys: HashSet<Key> = old
        .map(|d| entries_for_document(catalog, dir, d, maintained_states))
        .unwrap_or_default()
        .into_iter()
        .collect();
    let new_keys: HashSet<Key> = new
        .map(|d| entries_for_document(catalog, dir, d, maintained_states))
        .unwrap_or_default()
        .into_iter()
        .collect();
    let removals = old_keys.difference(&new_keys).cloned().collect();
    let additions = new_keys.difference(&old_keys).cloned().collect();
    (removals, additions)
}

/// The maintenance work one document change causes on one index.
#[derive(Clone, Debug)]
pub struct IndexMaintenance {
    /// The index the entries belong to.
    pub index: IndexId,
    /// Entry keys to delete, sorted.
    pub removals: Vec<Key>,
    /// Entry keys to insert, sorted.
    pub additions: Vec<Key>,
}

/// [`entry_diff`] grouped by owning index, in ascending index-id order.
/// Every index *examined* appears — including those whose diff came out
/// empty (an unchanged field still had its entries computed and compared),
/// so the write path can attribute per-index cost honestly. Key lists are
/// sorted, making the resulting mutation order deterministic.
pub fn entry_diff_per_index(
    catalog: &mut IndexCatalog,
    dir: DirectoryId,
    old: Option<&Document>,
    new: Option<&Document>,
    maintained_states: &[IndexState],
) -> Vec<IndexMaintenance> {
    let old_keys: HashSet<(IndexId, Key)> = old
        .map(|d| entries_for_document_tagged(catalog, dir, d, maintained_states))
        .unwrap_or_default()
        .into_iter()
        .collect();
    let new_keys: HashSet<(IndexId, Key)> = new
        .map(|d| entries_for_document_tagged(catalog, dir, d, maintained_states))
        .unwrap_or_default()
        .into_iter()
        .collect();
    let mut by_index: BTreeMap<IndexId, IndexMaintenance> = BTreeMap::new();
    for (index, _) in old_keys.union(&new_keys) {
        by_index.entry(*index).or_insert_with(|| IndexMaintenance {
            index: *index,
            removals: Vec::new(),
            additions: Vec::new(),
        });
    }
    for (index, key) in old_keys.difference(&new_keys) {
        by_index.get_mut(index).expect("grouped").removals.push(key.clone());
    }
    for (index, key) in new_keys.difference(&old_keys) {
        by_index.get_mut(index).expect("grouped").additions.push(key.clone());
    }
    let mut out: Vec<IndexMaintenance> = by_index.into_values().collect();
    for m in &mut out {
        m.removals.sort();
        m.additions.sort();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::DocumentName;

    fn dir() -> DirectoryId {
        DirectoryId(7)
    }

    fn doc() -> Document {
        Document::new(
            DocumentName::parse("/restaurants/one").unwrap(),
            [
                ("city", Value::from("SF")),
                ("avgRating", Value::from(4.5)),
                (
                    "tags",
                    Value::Array(vec![Value::from("bbq"), Value::from("smoked")]),
                ),
                ("address", Value::map([("zip", Value::from("94000"))])),
            ],
        )
    }

    #[test]
    fn expand_includes_nested_map_fields() {
        let d = doc();
        let fields: Vec<String> = expand_fields(&d).into_iter().map(|(p, _)| p).collect();
        assert!(fields.contains(&"city".to_string()));
        assert!(fields.contains(&"address".to_string()));
        assert!(fields.contains(&"address.zip".to_string()));
        assert!(fields.contains(&"tags".to_string()));
    }

    #[test]
    fn auto_entries_count() {
        let mut cat = IndexCatalog::new();
        let d = doc();
        let keys = entries_for_document(&mut cat, dir(), &d, &[IndexState::Ready]);
        // Fields: city, avgRating, tags, address, address.zip = 5 whole-value
        // entries + 2 array element entries.
        assert_eq!(keys.len(), 7);
        // All distinct.
        let set: HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), 7);
    }

    #[test]
    fn exemption_removes_entries() {
        let mut cat = IndexCatalog::new();
        cat.add_exemption("restaurants", "tags");
        let d = doc();
        let keys = entries_for_document(&mut cat, dir(), &d, &[IndexState::Ready]);
        assert_eq!(keys.len(), 4, "tags (1 + 2 element entries) are gone");
        assert!(cat.auto_index_id("restaurants", "tags").is_none());
    }

    #[test]
    fn composite_entry_requires_all_fields() {
        let mut cat = IndexCatalog::new();
        let id = cat.add_composite(
            "restaurants",
            vec![IndexedField::asc("city"), IndexedField::desc("avgRating")],
            IndexState::Ready,
        );
        let d = doc();
        let keys = entries_for_document(&mut cat, dir(), &d, &[IndexState::Ready]);
        let prefix = index_prefix(dir(), id);
        assert_eq!(keys.iter().filter(|k| k.has_prefix(&prefix)).count(), 1);

        // A document missing `avgRating` produces no composite entry.
        let d2 = Document::new(
            DocumentName::parse("/restaurants/two").unwrap(),
            [("city", Value::from("NY"))],
        );
        let keys2 = entries_for_document(&mut cat, dir(), &d2, &[IndexState::Ready]);
        assert_eq!(keys2.iter().filter(|k| k.has_prefix(&prefix)).count(), 0);
    }

    #[test]
    fn building_indexes_maintained_only_when_requested() {
        let mut cat = IndexCatalog::new();
        let id = cat.add_composite(
            "restaurants",
            vec![IndexedField::asc("city"), IndexedField::asc("avgRating")],
            IndexState::Building,
        );
        let d = doc();
        let prefix = index_prefix(dir(), id);
        let ready_only = entries_for_document(&mut cat, dir(), &d, &[IndexState::Ready]);
        assert!(ready_only.iter().all(|k| !k.has_prefix(&prefix)));
        let with_building = entries_for_document(
            &mut cat,
            dir(),
            &d,
            &[IndexState::Ready, IndexState::Building],
        );
        assert!(with_building.iter().any(|k| k.has_prefix(&prefix)));
    }

    #[test]
    fn diff_on_field_change_touches_only_that_field() {
        let mut cat = IndexCatalog::new();
        let old = doc();
        let mut new = doc();
        new.fields.insert("avgRating".into(), Value::from(4.7));
        let (removals, additions) = entry_diff(
            &mut cat,
            dir(),
            Some(&old),
            Some(&new),
            &[IndexState::Ready],
        );
        assert_eq!(removals.len(), 1);
        assert_eq!(additions.len(), 1);
        let idx = cat.auto_index_id("restaurants", "avgRating").unwrap();
        let prefix = index_prefix(dir(), idx);
        assert!(removals[0].has_prefix(&prefix));
        assert!(additions[0].has_prefix(&prefix));
    }

    #[test]
    fn diff_insert_and_delete() {
        let mut cat = IndexCatalog::new();
        let d = doc();
        let (rem, add) = entry_diff(&mut cat, dir(), None, Some(&d), &[IndexState::Ready]);
        assert!(rem.is_empty());
        assert_eq!(add.len(), 7);
        let (rem2, add2) = entry_diff(&mut cat, dir(), Some(&d), None, &[IndexState::Ready]);
        assert_eq!(rem2.len(), 7);
        assert!(add2.is_empty());
    }

    #[test]
    fn entry_keys_group_by_index_then_value() {
        let mut cat = IndexCatalog::new();
        let c = crate::path::CollectionPath::parse("/r").unwrap();
        let doc_a = Document::new(c.doc("a"), [("x", Value::Int(1))]);
        let doc_b = Document::new(c.doc("b"), [("x", Value::Int(2))]);
        let ka = entries_for_document(&mut cat, dir(), &doc_a, &[IndexState::Ready]);
        let kb = entries_for_document(&mut cat, dir(), &doc_b, &[IndexState::Ready]);
        // Same index, value 1 sorts before value 2.
        assert!(ka[0] < kb[0]);
    }

    #[test]
    fn desc_last_composite_stores_name_reversed() {
        // An index ending in a descending field stores the name tiebreak
        // descending too, so a forward scan yields (value desc, name desc)
        // — the order matching::order_key defines for rating ties.
        let mut cat = IndexCatalog::new();
        let id = cat.add_composite(
            "r",
            vec![IndexedField::asc("city"), IndexedField::desc("rating")],
            IndexState::Ready,
        );
        let c = crate::path::CollectionPath::parse("/r").unwrap();
        let fields = [("city", Value::from("SF")), ("rating", Value::Int(4))];
        let doc_a = Document::new(c.doc("a"), fields.clone());
        let doc_b = Document::new(c.doc("b"), fields);
        let prefix = index_prefix(dir(), id);
        let mut key_of = |d: &Document| {
            entries_for_document(&mut cat, dir(), d, &[IndexState::Ready])
                .into_iter()
                .find(|k| k.has_prefix(&prefix))
                .unwrap()
        };
        let ka = key_of(&doc_a);
        let kb = key_of(&doc_b);
        // Equal (city, rating): the name decides, reversed — "b" first.
        assert!(kb < ka);
    }

    #[test]
    fn different_directories_are_disjoint() {
        let mut cat = IndexCatalog::new();
        let d = doc();
        let k1 = entries_for_document(&mut cat, DirectoryId(1), &d, &[IndexState::Ready]);
        let k2 = entries_for_document(&mut cat, DirectoryId(2), &d, &[IndexState::Ready]);
        let s1: HashSet<_> = k1.into_iter().collect();
        assert!(s1.is_disjoint(&k2.into_iter().collect()));
    }

    #[test]
    fn catalog_state_transitions() {
        let mut cat = IndexCatalog::new();
        let id = cat.add_composite("c", vec![IndexedField::asc("f")], IndexState::Building);
        assert_eq!(cat.composite(id).unwrap().state, IndexState::Building);
        assert!(cat.set_state(id, IndexState::Ready));
        assert_eq!(cat.composites_for("c", &[IndexState::Ready]).len(), 1);
        assert!(cat.remove(id).is_some());
        assert!(!cat.set_state(id, IndexState::Ready));
    }
}
