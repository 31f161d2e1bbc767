//! Bitwise correctness checks against references made without the code
//! path under test.

use blockdec_chain::{BlockColumns, ColumnsSlice, ProducerId, ProducerRegistry};
use blockdec_core::{MeasurementPoint, MeasurementSeries};
use blockdec_store::row::weight_to_millis;
use blockdec_store::RowRecord;

/// Reference columns re-keyed into the store's dictionary: each
/// producer id is translated by name, and each weight is quantized the
/// way the store persists credits (whole millis). The result can be
/// compared with `==` against what the store returns.
pub fn rekey(
    cols: ColumnsSlice<'_>,
    names: &ProducerRegistry,
    store_names: &ProducerRegistry,
) -> Option<BlockColumns> {
    let map: Vec<Option<ProducerId>> = (0..names.len())
        .map(|i| {
            let name = names.name(ProducerId(i as u32))?;
            store_names.get(name)
        })
        .collect();
    let mut out = BlockColumns::with_capacity(cols.len(), cols.credit_count());
    for i in 0..cols.len() {
        out.push_block(cols.height(i), cols.timestamp(i));
        for (p, &w) in cols.producers_of(i).iter().zip(cols.weights_of(i)) {
            let id = (*map.get(p.index())?)?;
            out.push_credit(id, quantize(w));
        }
    }
    Some(out)
}

/// A weight as the store reads it back.
pub fn quantize(weight: f64) -> f64 {
    RowRecord {
        height: 0,
        timestamp: 0,
        producer: 0,
        credit_millis: weight_to_millis(weight),
        tx_count: 0,
        size_bytes: 0,
        difficulty: 0,
    }
    .credit()
}

fn same_point(a: &MeasurementPoint, b: &MeasurementPoint) -> bool {
    a.index == b.index
        && a.start_height == b.start_height
        && a.end_height == b.end_height
        && a.start_time == b.start_time
        && a.end_time == b.end_time
        && a.blocks == b.blocks
        && a.producers == b.producers
        && a.value.to_bits() == b.value.to_bits()
}

/// Bitwise equality of two point lists (`f64` compared by bits).
pub fn same_points(a: &[MeasurementPoint], b: &[MeasurementPoint]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_point(x, y))
}

/// Bitwise equality of two series lists.
pub fn same_series(a: &[MeasurementSeries], b: &[MeasurementSeries]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.metric == y.metric && x.window == y.window && same_points(&x.points, &y.points)
        })
}

/// Flip the lowest mantissa bit of the first point of the first series,
/// so the self-test can prove a one-bit difference fails the check.
pub fn corrupt(series: &mut [MeasurementSeries]) {
    if let Some(p) = series.first_mut().and_then(|s| s.points.first_mut()) {
        p.value = f64::from_bits(p.value.to_bits() ^ 1);
    }
}
