//! CSV import/export for location datasets and linkage results.
//!
//! The record format is one line per record:
//!
//! ```text
//! entity_id,latitude,longitude,timestamp[,accuracy_m]
//! ```
//!
//! * `entity_id` — unsigned integer (dataset-local anonymous id),
//! * `latitude`/`longitude` — degrees,
//! * `timestamp` — seconds since any epoch shared by both datasets,
//! * `accuracy_m` — optional region radius in metres (paper §2.1).
//!
//! A header line is skipped automatically when the first field is not
//! numeric. Parsing is strict otherwise: a malformed line — a byte that
//! is not UTF-8 included — aborts with a line-numbered error rather than
//! silently dropping data. Lines of plain decimal fields, the shape
//! [`write_records_csv`] produces, take an exact fast path; every other
//! line, and every error, goes through the general parser.

use std::fmt;
use std::io::{BufRead, Write};

use geocell::LatLng;

use crate::dataset::LocationDataset;
use crate::matching::Edge;
use crate::record::{EntityId, Record, Timestamp};

/// CSV import error with 1-based line information.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

fn parse_line(line: &str, lineno: usize) -> Result<Record, CsvError> {
    let mut fields = line.split(',').map(str::trim);
    let mut next = |name: &str| {
        fields
            .next()
            .filter(|f| !f.is_empty())
            .ok_or_else(|| CsvError::Parse {
                line: lineno,
                message: format!("missing field `{name}`"),
            })
    };
    let err = |name: &str, value: &str| CsvError::Parse {
        line: lineno,
        message: format!("field `{name}` is not a number: `{value}`"),
    };
    let entity_s = next("entity_id")?;
    let entity: u64 = entity_s.parse().map_err(|_| err("entity_id", entity_s))?;
    let lat_s = next("latitude")?;
    let lat: f64 = lat_s.parse().map_err(|_| err("latitude", lat_s))?;
    let lng_s = next("longitude")?;
    let lng: f64 = lng_s.parse().map_err(|_| err("longitude", lng_s))?;
    let ts_s = next("timestamp")?;
    let ts: i64 = ts_s.parse().map_err(|_| err("timestamp", ts_s))?;
    if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lng) {
        return Err(CsvError::Parse {
            line: lineno,
            message: format!("coordinates out of range: ({lat}, {lng})"),
        });
    }
    let accuracy = match fields.next().map(str::trim).filter(|f| !f.is_empty()) {
        Some(a) => {
            let v: f64 = a.parse().map_err(|_| err("accuracy_m", a))?;
            if !(v.is_finite() && v >= 0.0) {
                return Err(CsvError::Parse {
                    line: lineno,
                    message: format!("accuracy must be non-negative, got {v}"),
                });
            }
            v
        }
        None => 0.0,
    };
    Ok(Record::with_accuracy(
        EntityId(entity),
        LatLng::from_degrees(lat, lng),
        Timestamp(ts),
        accuracy,
    ))
}

/// Most significant digits a fast-path number may have: below 10¹⁵ the
/// digits are an integer `m < 2⁵³`, exact as an `f64`.
const FAST_DIGITS: u32 = 15;

/// Most fractional digits a fast-path number may have: `10²²` is the
/// largest power of ten exact as an `f64`.
const FAST_FRACTION: usize = 22;

/// `10^k` for `k ≤ FAST_FRACTION`, each exact.
const POW10: [f64; FAST_FRACTION + 1] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// A non-empty run of ASCII digits as an integer; `None` on anything
/// else or on overflow.
fn fast_uint(field: &[u8]) -> Option<u64> {
    if field.is_empty() {
        return None;
    }
    field.iter().try_fold(0u64, |acc, &b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        acc.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// `[-]digits[.digits]` with at most [`FAST_DIGITS`] significant and
/// [`FAST_FRACTION`] fractional digits, as `m / 10^k` — Clinger's fast
/// path: both operands are exact, so the one correctly rounded division
/// is the correctly rounded value `str::parse` returns. `None` on every
/// other shape.
fn fast_f64(field: &[u8]) -> Option<f64> {
    let (negative, unsigned) = match field.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, field),
    };
    let (int, frac) = match unsigned.iter().position(|&b| b == b'.') {
        Some(dot) if dot + 1 < unsigned.len() => (&unsigned[..dot], &unsigned[dot + 1..]),
        Some(_) => return None,
        None => (unsigned, &[][..]),
    };
    if int.is_empty() || frac.len() > FAST_FRACTION {
        return None;
    }
    let mut m = 0u64;
    let mut significant = 0;
    for &b in int.iter().chain(frac) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        m = m * 10 + u64::from(digit);
        significant += u32::from(m != 0);
        if significant > FAST_DIGITS {
            return None;
        }
    }
    let value = m as f64 / POW10[frac.len()];
    Some(if negative { -value } else { value })
}

/// The record of an ASCII line in the one shape the writers produce —
/// four or five fields of plain decimals, in range — without `str`
/// splitting, Unicode trimming or the general float parser. `None` sends
/// the line to [`parse_line`], the only producer of errors, which gives
/// the same record for every line this accepts.
fn fast_record(line: &[u8]) -> Option<Record> {
    let mut fields = line.split(|&b| b == b',').map(<[u8]>::trim_ascii);
    let entity = fast_uint(fields.next()?)?;
    let lat = fast_f64(fields.next()?)?;
    let lng = fast_f64(fields.next()?)?;
    let ts = fields.next()?;
    let ts = match ts.split_first() {
        Some((b'-', digits)) => -i64::try_from(fast_uint(digits)?).ok()?,
        _ => i64::try_from(fast_uint(ts)?).ok()?,
    };
    let accuracy = match fields.next() {
        Some([]) | None => 0.0,
        Some(field) => fast_f64(field)?,
    };
    let in_range = (-90.0..=90.0).contains(&lat)
        && (-180.0..=180.0).contains(&lng)
        && accuracy >= 0.0
        && fields.next().is_none();
    in_range.then(|| {
        Record::with_accuracy(
            EntityId(entity),
            LatLng::from_degrees(lat, lng),
            Timestamp(ts),
            accuracy,
        )
    })
}

/// One data line (already trimmed) as a record: the fast path where it
/// applies, [`parse_line`] otherwise.
fn parse_record(line: &str, lineno: usize) -> Result<Record, CsvError> {
    if line.is_ascii() {
        if let Some(record) = fast_record(line.as_bytes()) {
            return Ok(record);
        }
    }
    parse_line(line, lineno)
}

/// Parses `reader` line by line through one reused buffer, handing each
/// record to `sink`. Skips a header line (first field non-numeric) and
/// blank lines.
fn for_each_record<R: BufRead>(
    mut reader: R,
    mut sink: impl FnMut(Record),
) -> Result<(), CsvError> {
    let mut bytes = Vec::new();
    let mut lineno = 0usize;
    loop {
        bytes.clear();
        if reader.read_until(b'\n', &mut bytes)? == 0 {
            return Ok(());
        }
        lineno += 1;
        let line = std::str::from_utf8(&bytes).map_err(|_| CsvError::Parse {
            line: lineno,
            message: "not valid UTF-8".to_string(),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if lineno == 1 {
            // Header detection: a non-numeric first field.
            let first = trimmed.split(',').next().unwrap_or("").trim();
            if first.parse::<u64>().is_err() {
                continue;
            }
        }
        sink(parse_record(trimmed, lineno)?);
    }
}

/// Reads records from CSV. Skips a header line (first field non-numeric)
/// and blank lines.
pub fn read_records_csv<R: BufRead>(reader: R) -> Result<Vec<Record>, CsvError> {
    let mut out = Vec::new();
    for_each_record(reader, |r| out.push(r))?;
    Ok(out)
}

/// Loads a dataset from a CSV file path: each parsed record goes straight
/// into its entity's group, so the file is never held as one vector.
pub fn load_dataset_csv(path: &std::path::Path) -> Result<LocationDataset, CsvError> {
    let file = std::fs::File::open(path)?;
    let mut dataset = LocationDataset::default();
    for_each_record(std::io::BufReader::new(file), |r| dataset.push(r))?;
    dataset.finish();
    Ok(dataset)
}

/// Writes records as CSV (with header).
pub fn write_records_csv<W: Write>(mut w: W, records: &[Record]) -> std::io::Result<()> {
    writeln!(w, "entity_id,latitude,longitude,timestamp,accuracy_m")?;
    for r in records {
        writeln!(
            w,
            "{},{:.7},{:.7},{},{}",
            r.entity.0,
            r.location.lat_deg(),
            r.location.lng_deg(),
            r.time.secs(),
            r.accuracy_m
        )?;
    }
    Ok(())
}

/// Writes linkage results as CSV (with header).
pub fn write_links_csv<W: Write>(mut w: W, links: &[Edge]) -> std::io::Result<()> {
    writeln!(w, "left_entity,right_entity,score")?;
    for e in links {
        writeln!(w, "{},{},{:.6}", e.left.0, e.right.0, e.weight)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_records() {
        let records = vec![
            Record::new(
                EntityId(1),
                LatLng::from_degrees(37.5, -122.25),
                Timestamp(100),
            ),
            Record::with_accuracy(
                EntityId(2),
                LatLng::from_degrees(-33.9, 151.2),
                Timestamp(-50),
                120.0,
            ),
        ];
        let mut buf = Vec::new();
        write_records_csv(&mut buf, &records).unwrap();
        let back = read_records_csv(&buf[..]).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].entity, EntityId(1));
        assert!((back[0].location.lat_deg() - 37.5).abs() < 1e-6);
        assert_eq!(back[1].time.secs(), -50);
        assert!((back[1].accuracy_m - 120.0).abs() < 1e-9);
        assert!(back[1].is_region());
    }

    #[test]
    fn header_and_blank_lines_skipped() {
        let csv = "entity_id,latitude,longitude,timestamp\n\n7,10.0,20.0,42\n";
        let recs = read_records_csv(csv.as_bytes()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].entity, EntityId(7));
    }

    #[test]
    fn headerless_files_parse_first_line() {
        let csv = "7,10.0,20.0,42\n8,11.0,21.0,43\n";
        let recs = read_records_csv(csv.as_bytes()).unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn optional_accuracy_field() {
        let csv = "1,0.0,0.0,0\n2,0.0,0.0,0,55.5\n";
        let recs = read_records_csv(csv.as_bytes()).unwrap();
        assert_eq!(recs[0].accuracy_m, 0.0);
        assert!((recs[1].accuracy_m - 55.5).abs() < 1e-9);
    }

    #[test]
    fn malformed_lines_report_line_numbers() {
        let csv = "1,0.0,0.0,0\nnot_a_number,0.0,0.0,0\n";
        let err = read_records_csv(csv.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("entity_id"), "{msg}");
    }

    /// Writes `text` to a scratch file of its own and loads it.
    fn load_text(name: &str, text: impl AsRef<[u8]>) -> Result<LocationDataset, CsvError> {
        let path = std::env::temp_dir().join(format!("slim_core_io_{name}.csv"));
        std::fs::write(&path, text).unwrap();
        let loaded = load_dataset_csv(&path);
        let _ = std::fs::remove_file(&path);
        loaded
    }

    #[test]
    fn loading_a_file_equals_grouping_its_records() {
        // Header, blank lines, interleaved entities, time going backwards,
        // and equal timestamps whose file order must survive the sort.
        let csv = "entity_id,latitude,longitude,timestamp,accuracy_m\n\
                   7,10.0,20.0,50\n\n\
                   3,11.0,21.0,40,12.5\n\
                   7,10.1,20.0,30\n\
                   7,10.2,20.0,30\n\
                   3,11.1,21.0,40\n\
                   7,10.3,20.0,30\n  \n\
                   9,12.0,22.0,-5\n";
        let loaded = load_text("equivalence", csv).unwrap();
        let grouped = LocationDataset::from_records(read_records_csv(csv.as_bytes()).unwrap());
        assert_eq!(loaded.num_records(), 7);
        assert_eq!(loaded.num_records(), grouped.num_records());
        assert_eq!(loaded.entities_sorted(), grouped.entities_sorted());
        for e in grouped.entities_sorted() {
            assert_eq!(loaded.records_of(e), grouped.records_of(e), "{e}");
        }
        let lats: Vec<f64> = loaded
            .records_of(EntityId(7))
            .iter()
            .map(|r| r.location.lat_deg())
            .collect();
        let want = [10.1, 10.2, 10.3, 10.0];
        assert!(
            lats.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-9),
            "{lats:?}"
        );
    }

    #[test]
    fn loader_counts_skipped_lines_in_its_line_numbers() {
        let csv = "entity_id,latitude,longitude,timestamp\n\n7,10.0,oops,42\n";
        for err in [
            load_text("line_numbers", csv).unwrap_err(),
            read_records_csv(csv.as_bytes()).unwrap_err(),
        ] {
            let msg = err.to_string();
            assert!(msg.starts_with("line 3:"), "{msg}");
            assert!(msg.contains("longitude"), "{msg}");
        }
        // Only line 1 may be a header.
        let late_header = "\nentity_id,latitude,longitude,timestamp\n";
        let msg = load_text("late_header", late_header)
            .unwrap_err()
            .to_string();
        assert!(msg.starts_with("line 2:"), "{msg}");
        assert!(matches!(
            load_dataset_csv(std::path::Path::new("/nonexistent/slim.csv")),
            Err(CsvError::Io(_))
        ));
    }

    #[test]
    fn a_line_that_is_not_utf8_reports_its_line_number() {
        let csv = b"entity_id,latitude,longitude,timestamp\n1,37.0,-122.0,5\n2,37.\xff0,-122.0,5\n";
        for err in [
            load_text("not_utf8", csv).unwrap_err(),
            read_records_csv(&csv[..]).unwrap_err(),
        ] {
            assert_eq!(err.to_string(), "line 3: not valid UTF-8");
        }
        // Only that line: valid UTF-8 beyond ASCII still parses.
        let nbsp = "1,\u{a0}37.5,-122.0,5\n";
        let recs = read_records_csv(nbsp.as_bytes()).unwrap();
        assert_eq!(recs[0].location.lat_deg(), 37.5);
    }

    /// Digits for a decimal of `significant` digits, `frac` of them after
    /// the point (leading zeros pad a fraction longer than the digits).
    fn decimal(rng: &mut rand::rngs::StdRng, significant: usize, frac: usize) -> String {
        use rand::Rng;
        let digits: String = (0..significant)
            .map(|i| char::from(b'0' + rng.random_range(u8::from(i == 0)..10)))
            .collect();
        let digits = format!("{digits:0>width$}", width = frac + 1);
        let (int, fraction) = digits.split_at(digits.len() - frac);
        if frac == 0 {
            int.to_string()
        } else {
            format!("{int}.{fraction}")
        }
    }

    #[test]
    fn fast_numbers_are_the_parsers_numbers() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(25);
        let mut fast = [0usize; 2];
        let mut check = |s: &str| {
            let want = s.parse::<f64>().ok().filter(|v| v.is_finite());
            match fast_f64(s.as_bytes()) {
                Some(v) => {
                    assert_eq!(Some(v.to_bits()), want.map(f64::to_bits), "`{s}`");
                    fast[0] += 1;
                }
                None => fast[1] += 1,
            }
        };
        for significant in 1..=17 {
            for frac in 0..=23 {
                for _ in 0..40 {
                    let s = decimal(&mut rng, significant, frac);
                    check(&s);
                    check(&format!("-{s}"));
                }
            }
        }
        for s in [
            "0",
            "-0",
            "0.0",
            "-0.0",
            "90",
            "-90",
            "180.000",
            "-180",
            "007.50",
            "9007199254740993",
            "123456789012345",
            "1234567890123456",
            "0.0000000000000000000001",
            "+5",
            "1e5",
            "1E-5",
            "inf",
            "-inf",
            "nan",
            "NaN",
            ".5",
            "5.",
            "-.5",
            "-",
            "",
            "--5",
            "1.2.3",
            "0x10",
            "1_0",
        ] {
            check(s);
        }
        let [taken, declined] = fast;
        assert!(taken > 20_000 && declined > 4_000, "{taken} / {declined}");
        // What the fast path must decline, exactly at its limits.
        for s in [
            "1234567890123456",
            "0.1234567890123456",
            "0.00000000000000000000001",
            "+5",
            "1e5",
            ".5",
            "5.",
        ] {
            assert_eq!(fast_f64(s.as_bytes()), None, "`{s}`");
        }
        assert_eq!(fast_f64(b"123456789012345"), Some(123456789012345.0));
        assert_eq!(fast_f64(b"0.0000000000000000000001"), Some(1e-22));
        assert_eq!(
            fast_f64(b"-0.0").map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
    }

    #[test]
    fn fast_lines_are_the_parsers_records() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(26);
        let entities = [
            "7",
            "007",
            "+7",
            "-7",
            "18446744073709551615",
            "18446744073709551616",
        ];
        let coordinates = [
            "-0.0",
            "90",
            "-90",
            "90.0000001",
            "-180",
            "180",
            "180.0000001",
            "95",
            ".5",
            "5.",
            "+37.5",
            "3.75e1",
            "\u{a0}37.5",
            "\t37.5 ",
            "",
        ];
        let timestamps = [
            "0",
            "-0",
            "-50",
            "+50",
            "1.5",
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",
            "",
        ];
        let accuracies = [
            "0", "-0.0", "12.5", " 3 ", "-1", "inf", "nan", "1e2", "+4", "",
        ];
        // One field in ten is a listed spelling.
        fn odd<'a>(rng: &mut StdRng, listed: &[&'a str]) -> Option<&'a str> {
            (rng.random_range(0..10) == 0).then(|| listed[rng.random_range(0..listed.len())])
        }
        // Or a decimal of 1–3 integer and 0–23 fractional digits, either sign.
        let number = |rng: &mut StdRng, listed: &[&str]| -> String {
            if let Some(field) = odd(rng, listed) {
                return field.to_string();
            }
            let (int, frac) = (rng.random_range(1usize..=3), rng.random_range(0..=23));
            let text = decimal(rng, int + frac, frac);
            match rng.random_range(0..2) {
                0 => format!("-{text}"),
                _ => text,
            }
        };
        let mut outcome = [0usize; 3];
        for _ in 0..20_000 {
            let entity = odd(&mut rng, &entities).map_or_else(
                || rng.random_range(0..100_000u64).to_string(),
                str::to_string,
            );
            let ts = odd(&mut rng, &timestamps).map_or_else(
                || {
                    rng.random_range(-1_000_000_000i64..1_000_000_000)
                        .to_string()
                },
                str::to_string,
            );
            let mut fields = vec![
                entity,
                number(&mut rng, &coordinates),
                number(&mut rng, &coordinates),
                ts,
            ];
            // Four fields, five, an empty fifth, or six.
            match rng.random_range(0..4) {
                0 => {}
                1 => fields.push(number(&mut rng, &accuracies)),
                2 => fields.push(String::new()),
                _ => fields.extend([number(&mut rng, &accuracies), "x".to_string()]),
            }
            let line = fields.join(",");
            let got = parse_record(&line, 9);
            match (got, parse_line(&line, 9)) {
                (Ok(a), Ok(b)) => {
                    let bits = |r: &Record| {
                        (
                            r.entity,
                            r.time,
                            r.location.lat_rad().to_bits(),
                            r.location.lng_rad().to_bits(),
                            r.accuracy_m.to_bits(),
                        )
                    };
                    assert_eq!(bits(&a), bits(&b), "`{line}`");
                    outcome[usize::from(fast_record(line.as_bytes()).is_none())] += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "`{line}`");
                    outcome[2] += 1;
                }
                (a, b) => panic!("`{line}`: {a:?} vs {b:?}"),
            }
        }
        let [fast, fallback, errors] = outcome;
        assert!(
            fast > 1_000 && fallback > 100 && errors > 1_000,
            "{outcome:?}"
        );
    }

    #[test]
    fn out_of_range_coordinates_rejected() {
        let csv = "1,95.0,0.0,0\n";
        let err = read_records_csv(csv.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn missing_fields_rejected() {
        let csv = "1,0.0\n";
        let err = read_records_csv(csv.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing field"));
    }

    #[test]
    fn links_csv_format() {
        let links = vec![Edge {
            left: EntityId(1),
            right: EntityId(1_000_002),
            weight: 123.456789,
        }];
        let mut buf = Vec::new();
        write_links_csv(&mut buf, &links).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("left_entity,right_entity,score\n"));
        assert!(text.contains("1,1000002,123.456789"));
    }
}
