//! Calendar-style reporting of block sequences — turning a discovered
//! compact sequence into the analyst-readable rows of Figure 9
//! ("12 Noon - 4 PM on all working days except 9-9-96").

use demon_types::calendar::{self, Weekday};
use demon_types::BlockInterval;
use std::collections::BTreeSet;

/// A calendar summary of a sequence of block intervals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CalendarPattern {
    /// Start hour-of-day of the blocks (when uniform).
    pub start_hour: Option<u64>,
    /// End hour-of-day of the blocks (when uniform; 24 = midnight).
    pub end_hour: Option<u64>,
    /// The days (indices from the epoch) covered.
    pub days: Vec<u64>,
    /// The formatted description.
    pub description: String,
}

/// Summarizes the intervals of a block sequence.
///
/// The description combines a time-of-day range (when all blocks share
/// the same start hour and duration) with a characterization of the
/// day set against the span it stretches over: all days, working days
/// (with exceptions), a fixed set of weekdays, weekends, or an explicit
/// date list as the fallback.
pub fn describe(intervals: &[BlockInterval]) -> CalendarPattern {
    assert!(!intervals.is_empty(), "cannot describe an empty sequence");
    let starts: BTreeSet<u64> = intervals.iter().map(|iv| iv.start.hour()).collect();
    let durations: BTreeSet<u64> = intervals.iter().map(|iv| iv.duration_secs()).collect();
    let days: Vec<u64> = {
        let set: BTreeSet<u64> = intervals.iter().map(|iv| iv.start.day()).collect();
        set.into_iter().collect()
    };

    let (start_hour, end_hour, time_str) = if durations.len() == 1 {
        let d = durations.first().expect("non-empty") / 3600;
        let hours: Vec<u64> = starts.iter().copied().collect();
        // A single start hour, or several start hours forming one
        // contiguous daily band (e.g. 8 AM and 12 Noon blocks of 4 hours
        // merge into "8 AM - 4 PM").
        let contiguous = hours.windows(2).all(|w| w[1] == w[0] + d);
        // Merging is only honest when every covered day has a block at
        // every start hour of the band.
        let complete = intervals.len() == days.len() * hours.len();
        if contiguous && complete {
            let s = hours[0];
            let e = hours[hours.len() - 1] + d;
            (Some(s), Some(e), format!("{} - {}", fmt_hour(s), fmt_hour(e)))
        } else {
            (None, None, "mixed hours".to_string())
        }
    } else {
        (None, None, "mixed hours".to_string())
    };

    let day_str = describe_days(&days);
    CalendarPattern {
        start_hour,
        end_hour,
        description: format!("{time_str} on {day_str}"),
        days,
    }
}

/// 12-hour clock labels in the paper's style (12 Noon, 12 PM = midnight).
fn fmt_hour(h: u64) -> String {
    match h % 24 {
        0 => {
            if h == 24 {
                "12 PM".to_string()
            } else {
                "12 AM".to_string()
            }
        }
        12 => "12 Noon".to_string(),
        x if x < 12 => format!("{x} AM"),
        x => format!("{} PM", x - 12),
    }
}

/// Characterizes a day set within its spanned range.
fn describe_days(days: &[u64]) -> String {
    assert!(!days.is_empty());
    let (lo, hi) = (days[0], days[days.len() - 1]);
    let in_span: Vec<u64> = (lo..=hi).collect();
    let day_set: BTreeSet<u64> = days.iter().copied().collect();

    // All days of the span.
    if day_set.len() == in_span.len() {
        return "all days".to_string();
    }

    // Working days (with exceptions listed).
    let working: Vec<u64> = in_span
        .iter()
        .copied()
        .filter(|&d| calendar::is_working_day(d))
        .collect();
    if !working.is_empty() && day_set.iter().all(|d| working.contains(d)) {
        let missing: Vec<u64> = working
            .iter()
            .copied()
            .filter(|d| !day_set.contains(d))
            .collect();
        if missing.is_empty() {
            return "all working days".to_string();
        }
        if missing.len() <= 2 {
            let dates: Vec<String> =
                missing.iter().map(|&d| calendar::format_date(d)).collect();
            return format!("all working days except {}", dates.join(", "));
        }
        // Too many exceptions to be "working days"; try weekday sets below.
    }

    // A fixed set of weekdays, fully covered across the span.
    let weekdays: BTreeSet<Weekday> =
        day_set.iter().map(|&d| Weekday::of_day(d)).collect();
    let full_coverage = in_span
        .iter()
        .filter(|&&d| weekdays.contains(&Weekday::of_day(d)))
        .all(|d| day_set.contains(d));
    if full_coverage && weekdays.len() <= 3 {
        if weekdays.iter().all(|w| w.is_weekend()) && weekdays.len() == 2 {
            return "weekends".to_string();
        }
        let names: Vec<String> = weekdays.iter().map(|w| format!("all {w}s")).collect();
        return names.join(" and ");
    }

    // Fallback: explicit date list.
    let dates: Vec<String> = day_set
        .iter()
        .map(|&d| calendar::format_date(d))
        .collect();
    dates.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::Timestamp;

    fn iv(day: u64, start_h: u64, hours: u64) -> BlockInterval {
        BlockInterval::new(
            Timestamp::from_day_hour(day, start_h),
            Timestamp::from_day_hour(day, start_h).plus_secs(hours * 3600),
        )
    }

    #[test]
    fn hour_formatting_matches_paper_style() {
        assert_eq!(fmt_hour(12), "12 Noon");
        assert_eq!(fmt_hour(16), "4 PM");
        assert_eq!(fmt_hour(8), "8 AM");
        assert_eq!(fmt_hour(24), "12 PM"); // paper writes midnight as 12 PM
        assert_eq!(fmt_hour(0), "12 AM");
    }

    #[test]
    fn working_days_with_exception() {
        // Working days of the first two weeks except day 7 (Monday 9-9).
        let days: Vec<u64> = (1..=11).filter(|&d| calendar::is_working_day(d) && d != 7).collect();
        let ivs: Vec<BlockInterval> = days.iter().map(|&d| iv(d, 12, 4)).collect();
        let p = describe(&ivs);
        assert_eq!(
            p.description,
            "12 Noon - 4 PM on all working days except 9-9-1996"
        );
        assert_eq!(p.start_hour, Some(12));
        assert_eq!(p.end_hour, Some(16));
    }

    #[test]
    fn all_working_days() {
        // Two work weeks (spanning the weekend days 5 and 6).
        let days: Vec<u64> = (1..=11).filter(|&d| calendar::is_working_day(d)).collect();
        let ivs: Vec<BlockInterval> = days.iter().map(|&d| iv(d, 8, 8)).collect();
        assert_eq!(describe(&ivs).description, "8 AM - 4 PM on all working days");
    }

    #[test]
    fn tuesdays_and_thursdays() {
        // Days 1, 3, 8, 10 are the Tue/Thu of the first two weeks.
        let ivs: Vec<BlockInterval> = [1u64, 3, 8, 10].iter().map(|&d| iv(d, 16, 8)).collect();
        assert_eq!(
            describe(&ivs).description,
            "4 PM - 12 PM on all Tues and all Thus"
        );
    }

    #[test]
    fn weekends() {
        let ivs: Vec<BlockInterval> = [5u64, 6, 12, 13].iter().map(|&d| iv(d, 0, 24)).collect();
        assert_eq!(describe(&ivs).description, "12 AM - 12 PM on weekends");
    }

    #[test]
    fn all_days_of_span() {
        let ivs: Vec<BlockInterval> = (3u64..=6).map(|d| iv(d, 0, 24)).collect();
        assert_eq!(describe(&ivs).description, "12 AM - 12 PM on all days");
    }

    #[test]
    fn irregular_days_fall_back_to_dates() {
        // Days 1 and 9 (Tue and Wed) with a skipped Tue at day 8 in between:
        // neither working-day nor weekday coverage holds.
        let ivs: Vec<BlockInterval> = [1u64, 9].iter().map(|&d| iv(d, 12, 4)).collect();
        let p = describe(&ivs);
        assert!(p.description.contains("9-3-1996"));
        assert!(p.description.contains("9-11-1996"));
    }

    #[test]
    fn mixed_hours_are_reported_as_such() {
        let ivs = vec![iv(1, 8, 4), iv(2, 12, 4)];
        let p = describe(&ivs);
        assert!(p.description.starts_with("mixed hours"));
        assert_eq!(p.start_hour, None);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sequence_panics() {
        describe(&[]);
    }
}
