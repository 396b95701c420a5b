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
//! numeric. Parsing is strict otherwise: a malformed line aborts with a
//! line-numbered error rather than silently dropping data.

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

/// Parses `reader` line by line through one reused buffer, handing each
/// record to `sink`. Skips a header line (first field non-numeric) and
/// blank lines.
fn for_each_record<R: BufRead>(
    mut reader: R,
    mut sink: impl FnMut(Record),
) -> Result<(), CsvError> {
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        lineno += 1;
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
        sink(parse_line(trimmed, lineno)?);
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
    fn load_text(name: &str, text: &str) -> Result<LocationDataset, CsvError> {
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
