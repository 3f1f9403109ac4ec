//! Row-blob codec for the serve wire protocol.
//!
//! `OP_QUERY` responses carry result rows as an opaque blob inside the
//! existing chunked-reply frames; this module defines that blob. The
//! serve protocol layer treats it as bytes — the schema stays here so
//! the query crate owns both ends.
//!
//! Layout: `u32 row_count`, then per row `u16 cell_count` followed by
//! tagged cells. Tags: 0 = null, 1 = bool (u8), 2 = int (i64 LE),
//! 3 = float (f64 LE), 4 = string (u32 LE length + UTF-8 bytes).
//! Decoding is fully bounds-checked and rejects trailing bytes — a
//! truncated or oversized blob is a typed [`QueryError`], never a panic.

use ros_msgs::wire::{WireRead, WireWrite};

use crate::error::{QueryError, QueryResult};
use crate::value::{Row, Value};

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;

/// Encode a batch of rows into one blob.
pub fn encode_rows(rows: &[Row]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + rows.len() * 16);
    out.put_u32(rows.len() as u32);
    for row in rows {
        out.put_u16(row.len() as u16);
        for v in row {
            match v {
                Value::Null => out.put_u8(TAG_NULL),
                Value::Bool(b) => {
                    out.put_u8(TAG_BOOL);
                    out.put_bool(*b);
                }
                Value::Int(i) => {
                    out.put_u8(TAG_INT);
                    out.put_i64(*i);
                }
                Value::Float(f) => {
                    out.put_u8(TAG_FLOAT);
                    out.put_f64(*f);
                }
                Value::Str(s) => {
                    out.put_u8(TAG_STR);
                    out.put_string(s);
                }
            }
        }
    }
    out
}

/// Decode a blob back into rows.
pub fn decode_rows(bytes: &[u8]) -> QueryResult<Vec<Row>> {
    let mut cur = bytes;
    // A row costs at least its 2-byte cell count, a cell its 1-byte tag.
    let n = cur.get_count(2)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let cells = cur.get_u16()? as usize;
        let mut row = Vec::with_capacity(cur.fits(cells, 1)?);
        for _ in 0..cells {
            let v = match cur.get_u8()? {
                TAG_NULL => Value::Null,
                TAG_BOOL => Value::Bool(cur.get_bool()?),
                TAG_INT => Value::Int(cur.get_i64()?),
                TAG_FLOAT => Value::Float(cur.get_f64()?),
                TAG_STR => Value::Str(cur.get_string()?),
                t => return Err(QueryError::wire(format!("unknown cell tag {t}"))),
            };
            row.push(v);
        }
        rows.push(row);
    }
    if cur.remaining() != 0 {
        return Err(QueryError::wire("trailing bytes after last row"));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let rows = vec![
            vec![Value::Null, Value::Bool(true), Value::Int(-7)],
            vec![Value::Float(2.5), Value::Str("hello ∞".into())],
            vec![],
        ];
        assert_eq!(decode_rows(&encode_rows(&rows)).unwrap(), rows);
        assert_eq!(decode_rows(&encode_rows(&[])).unwrap(), Vec::<Row>::new());
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let blob = encode_rows(&[vec![Value::Str("abcdef".into()), Value::Int(1)]]);
        for cut in 0..blob.len() {
            assert!(decode_rows(&blob[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing junk.
        let mut ext = blob.clone();
        ext.push(0);
        assert!(decode_rows(&ext).is_err());
        // Bad tag.
        let bad = vec![1, 0, 0, 0, 1, 0, 9];
        assert!(decode_rows(&bad).is_err());
        // Absurd row count.
        let absurd = vec![255, 255, 255, 255];
        assert!(decode_rows(&absurd).is_err());
    }
}
