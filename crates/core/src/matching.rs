//! Query ↔ document matching and result ordering, shared by the Query
//! Matcher (real-time, §IV-D4) and the client SDK's local query engine
//! (§IV-E).
//!
//! Semantics are defined *by the index encoding*: a document matches a
//! query iff the index executor would return it, and result order is the
//! byte order of the encoded sort tuple. Using the same encoding guarantees
//! the Real-time Cache and the local cache agree with the Backend.

use crate::document::{Document, Value};
use crate::encoding::{class_tags, encode_value, encoded, Direction};
use crate::query::{FilterOp, Query};

/// Whether `doc` is in `query`'s result set (ignoring limit/offset, which
/// are applied to the ordered set by the caller).
pub fn matches_document(query: &Query, doc: &Document) -> bool {
    // Direct membership in the queried collection.
    if !query.collection.contains(&doc.name) {
        return false;
    }
    // Every filter must hold.
    for f in &query.filters {
        let Some(value) = doc.get(&f.field) else {
            return false;
        };
        let ok = match f.op {
            FilterOp::Eq => encoded(value) == encoded(&f.value),
            FilterOp::ArrayContains => match value {
                Value::Array(items) => {
                    let want = encoded(&f.value);
                    items.iter().any(|i| encoded(i) == want)
                }
                _ => false,
            },
            FilterOp::In => match &f.value {
                Value::Array(candidates) => {
                    let have = encoded(value);
                    candidates.iter().any(|c| encoded(c) == have)
                }
                _ => false,
            },
            FilterOp::Lt | FilterOp::Le | FilterOp::Gt | FilterOp::Ge => {
                // Inequalities only match values of the same type class.
                if class_tags(value) != class_tags(&f.value) {
                    false
                } else {
                    let a = encoded(value);
                    let b = encoded(&f.value);
                    match f.op {
                        FilterOp::Lt => a < b,
                        FilterOp::Le => a <= b,
                        FilterOp::Gt => a > b,
                        FilterOp::Ge => a >= b,
                        _ => unreachable!(),
                    }
                }
            }
        };
        if !ok {
            return false;
        }
    }
    // Every order-by field must be present (documents without the field
    // have no index entry and are not returned).
    match query.validate() {
        Ok(orders) => orders
            .iter()
            .filter(|(f, _)| f != "__name__")
            .all(|(f, _)| doc.get(f).is_some()),
        Err(_) => false,
    }
}

/// The byte key that sorts `doc` within `query`'s results: the encoded sort
/// tuple followed by the (direction-adjusted) encoded name. Returns `None`
/// for invalid queries or documents missing a sort field.
pub fn order_key(query: &Query, doc: &Document) -> Option<Vec<u8>> {
    let orders = query.validate().ok()?;
    let mut key = Vec::new();
    for (field, dir) in &orders {
        if field == "__name__" {
            let name_enc = doc.name.encode();
            match dir {
                Direction::Asc => key.extend_from_slice(&name_enc),
                Direction::Desc => key.extend(name_enc.iter().map(|b| !b)),
            }
        } else {
            let v = doc.get(field)?;
            encode_value(v, *dir, &mut key);
        }
    }
    Some(key)
}

/// Apply offset/limit to an ordered result sequence: the one windowing
/// implementation, shared by the real-time views, the client's local query
/// engine and the oracle's model. Lazy, so a view that windows borrowed
/// documents clones only the window.
pub fn apply_window<I: IntoIterator>(
    items: I,
    offset: usize,
    limit: Option<usize>,
) -> impl Iterator<Item = I::Item> {
    items
        .into_iter()
        .skip(offset)
        .take(limit.unwrap_or(usize::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::DocumentName;

    fn doc(path: &str, fields: Vec<(&'static str, Value)>) -> Document {
        Document::new(DocumentName::parse(path).unwrap(), fields)
    }

    fn q(path: &str) -> Query {
        Query::parse(path).unwrap()
    }

    #[test]
    fn collection_membership() {
        let d = doc("/restaurants/one", vec![("city", Value::from("SF"))]);
        assert!(matches_document(&q("/restaurants"), &d));
        assert!(!matches_document(&q("/reviews"), &d));
        // Sub-collection documents are not direct members.
        let sub = doc("/restaurants/one/ratings/2", vec![("r", Value::Int(5))]);
        assert!(!matches_document(&q("/restaurants"), &sub));
        assert!(matches_document(&q("/restaurants/one/ratings"), &sub));
    }

    #[test]
    fn equality_crosses_int_double() {
        let d = doc("/c/d", vec![("n", Value::Double(3.0))]);
        assert!(matches_document(
            &q("/c").filter("n", FilterOp::Eq, 3i64),
            &d
        ));
        assert!(!matches_document(
            &q("/c").filter("n", FilterOp::Eq, 4i64),
            &d
        ));
    }

    #[test]
    fn inequality_respects_type_class() {
        let num = doc("/c/a", vec![("n", Value::Int(5))]);
        let string = doc("/c/b", vec![("n", Value::from("zzz"))]);
        let gt = q("/c").filter("n", FilterOp::Gt, 2i64);
        assert!(matches_document(&gt, &num));
        assert!(
            !matches_document(&gt, &string),
            "inequalities never match other types (strings sort above numbers but are excluded)"
        );
    }

    #[test]
    fn array_contains() {
        let d = doc(
            "/c/d",
            vec![(
                "tags",
                Value::Array(vec![Value::from("a"), Value::from("b")]),
            )],
        );
        assert!(matches_document(
            &q("/c").filter("tags", FilterOp::ArrayContains, "a"),
            &d
        ));
        assert!(!matches_document(
            &q("/c").filter("tags", FilterOp::ArrayContains, "z"),
            &d
        ));
        // array-contains on a non-array never matches.
        let scalar = doc("/c/d", vec![("tags", Value::from("a"))]);
        assert!(!matches_document(
            &q("/c").filter("tags", FilterOp::ArrayContains, "a"),
            &scalar
        ));
    }

    #[test]
    fn in_matches_any_candidate() {
        let d = doc("/c/d", vec![("city", Value::from("SF"))]);
        let hit = q("/c").filter(
            "city",
            FilterOp::In,
            Value::Array(vec![Value::from("NY"), Value::from("SF")]),
        );
        assert!(matches_document(&hit, &d));
        let miss = q("/c").filter(
            "city",
            FilterOp::In,
            Value::Array(vec![Value::from("NY"), Value::from("LA")]),
        );
        assert!(!matches_document(&miss, &d));
        // Int/double unify inside `in` like plain equality.
        let num = doc("/c/d", vec![("n", Value::Double(3.0))]);
        let q_in = q("/c").filter("n", FilterOp::In, Value::Array(vec![Value::Int(3)]));
        assert!(matches_document(&q_in, &num));
    }

    #[test]
    fn missing_order_field_excludes() {
        let with = doc("/c/a", vec![("r", Value::Int(1))]);
        let without = doc("/c/b", vec![("other", Value::Int(1))]);
        let ordered = q("/c").order_by("r", Direction::Desc);
        assert!(matches_document(&ordered, &with));
        assert!(!matches_document(&ordered, &without));
    }

    #[test]
    fn order_key_sorts_like_query() {
        let query = q("/c").order_by("r", Direction::Desc);
        let hi = doc("/c/z", vec![("r", Value::Int(9))]);
        let lo = doc("/c/a", vec![("r", Value::Int(1))]);
        let kh = order_key(&query, &hi).unwrap();
        let kl = order_key(&query, &lo).unwrap();
        assert!(kh < kl, "desc: higher rating sorts first");
        // Name tiebreak (desc direction follows the last order).
        let a = doc("/c/a", vec![("r", Value::Int(5))]);
        let b = doc("/c/b", vec![("r", Value::Int(5))]);
        let ka = order_key(&query, &a).unwrap();
        let kb = order_key(&query, &b).unwrap();
        assert!(kb < ka, "name tiebreak is desc too");
    }

    #[test]
    fn order_key_none_for_missing_field() {
        let query = q("/c").order_by("r", Direction::Asc);
        let d = doc("/c/a", vec![("other", Value::Int(1))]);
        assert!(order_key(&query, &d).is_none());
    }

    #[test]
    fn window_application() {
        let items = [1, 2, 3, 4, 5];
        let window = |offset, limit| apply_window(items, offset, limit).collect::<Vec<i32>>();
        assert_eq!(window(0, Some(2)), vec![1, 2]);
        assert_eq!(window(2, Some(2)), vec![3, 4]);
        assert_eq!(window(4, None), vec![5]);
        assert_eq!(window(9, Some(2)), Vec::<i32>::new());
    }
}
