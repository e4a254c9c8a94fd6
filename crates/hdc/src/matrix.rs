use crate::kernels::{self, Kernels};
use crate::{BinaryHypervector, HdcError, Result};
use rayon::prelude::*;

/// Rows per parallel work unit of [`HvMatrix::fill_rows`].
const FILL_BLOCK_ROWS: usize = 256;

/// A batch of packed binary hypervectors in one contiguous buffer.
///
/// `HvMatrix` is the structure-of-arrays companion to
/// [`BinaryHypervector`]: `rows` hypervectors of dimension `dim` stored
/// row-major in a single `Vec<u64>`, with a fixed row stride of
/// `dim.div_ceil(64)` words. This is the storage the SegHDC hot path runs
/// on — one matrix holds every pixel hypervector of an image, so encoding
/// and clustering touch a single allocation instead of one `Vec<u64>` per
/// pixel.
///
/// Rows are accessed through lightweight views: [`HvRow`] (shared) and
/// [`HvRowMut`] (exclusive). Both operate at word level (XOR, popcount,
/// Hamming) and never allocate. A row round-trips with the single-vector
/// API bit-for-bit: [`HvRow::to_hypervector`] and
/// [`HvMatrix::set_row`] are exact inverses.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), hdc::HdcError> {
/// use hdc::{BinaryHypervector, HdcRng, HvMatrix};
///
/// let mut rng = HdcRng::seed_from(11);
/// let a = BinaryHypervector::random(300, &mut rng);
/// let b = BinaryHypervector::random(300, &mut rng);
///
/// let mut matrix = HvMatrix::zeros(2, 300)?;
/// matrix.set_row(0, &a)?;
/// matrix.row_mut(1).copy_from(&b)?;
/// matrix.row_mut(1).xor_assign(&a)?; // bind in place, no allocation
///
/// assert_eq!(matrix.row(0).to_hypervector(), a);
/// assert_eq!(matrix.row(1).to_hypervector(), a.xor(&b)?);
/// assert_eq!(matrix.row(0).hamming(matrix.row(1))?, a.hamming(&a.xor(&b)?)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HvMatrix {
    rows: usize,
    dim: usize,
    stride: usize,
    words: Vec<u64>,
}

impl HvMatrix {
    /// Creates an all-zero matrix of `rows` hypervectors of dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] if `dim == 0`.
    pub fn zeros(rows: usize, dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(HdcError::ZeroDimension);
        }
        let stride = dim.div_ceil(64);
        Ok(Self {
            rows,
            dim,
            stride,
            words: vec![0; rows.saturating_mul(stride)],
        })
    }

    /// Reshapes the matrix in place to `rows` hypervectors of dimension
    /// `dim`, zeroing every bit.
    ///
    /// The backing allocation is **reused** whenever its capacity suffices,
    /// which makes a single `HvMatrix` usable as a bounded arena across a
    /// sequence of differently-sized batches (the streaming tiled segmenter
    /// resets one matrix per tile instead of allocating per tile). Use
    /// [`capacity_bytes`](Self::capacity_bytes) to observe the high-water
    /// mark of the buffer.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] if `dim == 0`.
    pub fn reset(&mut self, rows: usize, dim: usize) -> Result<()> {
        if dim == 0 {
            return Err(HdcError::ZeroDimension);
        }
        let stride = dim.div_ceil(64);
        let words = rows.saturating_mul(stride);
        self.words.clear();
        self.words.resize(words, 0);
        self.rows = rows;
        self.dim = dim;
        self.stride = stride;
        Ok(())
    }

    /// Bytes currently reserved by the backing buffer (its capacity, not
    /// its length) — the number that matters for peak-memory accounting of
    /// arenas built on [`reset`](Self::reset).
    pub fn capacity_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Packs a slice of hypervectors into a matrix (row `i` = `vectors[i]`).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] if `vectors` is empty and
    /// [`HdcError::DimensionMismatch`] if the vectors disagree in dimension.
    pub fn from_vectors(vectors: &[BinaryHypervector]) -> Result<Self> {
        let first = vectors.first().ok_or(HdcError::EmptyInput)?;
        let mut matrix = Self::zeros(vectors.len(), first.dim())?;
        for (i, hv) in vectors.iter().enumerate() {
            matrix.set_row(i, hv)?;
        }
        Ok(matrix)
    }

    /// Unpacks every row into an owned [`BinaryHypervector`].
    pub fn to_vectors(&self) -> Vec<BinaryHypervector> {
        (0..self.rows)
            .map(|i| self.row(i).to_hypervector())
            .collect()
    }

    /// Number of hypervectors (rows) in the matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Hypervector dimension (bits per row).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Words per row (`dim.div_ceil(64)`).
    pub fn stride_words(&self) -> usize {
        self.stride
    }

    /// The packed backing buffer (rows concatenated, `stride_words` words
    /// per row).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// A shared view of row `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= rows()` (row access is the innermost hot-path
    /// operation, so it uses slice-style indexing rather than `Result`).
    pub fn row(&self, index: usize) -> HvRow<'_> {
        let start = index * self.stride;
        HvRow {
            words: &self.words[start..start + self.stride],
            dim: self.dim,
        }
    }

    /// An exclusive view of row `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= rows()`.
    pub fn row_mut(&mut self, index: usize) -> HvRowMut<'_> {
        let start = index * self.stride;
        HvRowMut {
            words: &mut self.words[start..start + self.stride],
            dim: self.dim,
        }
    }

    /// Copies `hv` into row `index`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `hv.dim() != dim()` and
    /// [`HdcError::IndexOutOfBounds`] if the row does not exist.
    pub fn set_row(&mut self, index: usize, hv: &BinaryHypervector) -> Result<()> {
        if index >= self.rows {
            return Err(HdcError::IndexOutOfBounds {
                index,
                dim: self.rows,
            });
        }
        self.row_mut(index).copy_from(hv)
    }

    /// Fills every row in parallel: `fill` is called once per row, across
    /// worker threads, with an exclusive view of that row (initially
    /// whatever the row currently holds).
    ///
    /// This is the batch-encoding primitive: the SegHDC pixel encoder uses
    /// it to XOR-bind codebook entries directly into the matrix with zero
    /// per-row allocation.
    pub fn fill_rows<F>(&mut self, fill: F)
    where
        F: Fn(usize, &mut HvRowMut<'_>) + Sync,
    {
        let (dim, stride) = (self.dim, self.stride);
        // One parallel unit per block of rows, not per row: the thread shim
        // hands out one slice per unit.
        self.words
            .as_mut_slice()
            .par_chunks_mut(FILL_BLOCK_ROWS * stride)
            .enumerate()
            .for_each(|(block, block_words)| {
                for (i, words) in block_words.chunks_mut(stride).enumerate() {
                    let mut row = HvRowMut { words, dim };
                    fill(block * FILL_BLOCK_ROWS + i, &mut row);
                }
            });
    }
}

/// A shared, never-allocating view of one [`HvMatrix`] row.
#[derive(Debug, Clone, Copy)]
pub struct HvRow<'a> {
    words: &'a [u64],
    dim: usize,
}

impl<'a> HvRow<'a> {
    /// The hypervector dimension of this row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed words backing this row.
    pub fn as_words(&self) -> &'a [u64] {
        self.words
    }

    /// Number of bits set to one.
    pub fn count_ones(&self) -> usize {
        kernels::auto().popcount(self.words) as usize
    }

    /// Iterates over the indices of the set bits, in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + 'a {
        kernels::iter_set_bits(self.words)
    }

    /// Hamming distance to another row.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn hamming(&self, other: HvRow<'_>) -> Result<usize> {
        if self.dim != other.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
            });
        }
        Ok(kernels::auto().hamming(self.words, other.words) as usize)
    }

    /// Hamming distance to a single hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn hamming_hv(&self, hv: &BinaryHypervector) -> Result<usize> {
        self.hamming_hv_with(hv, kernels::auto())
    }

    /// [`hamming_hv`](Self::hamming_hv) through an explicit [`Kernels`]
    /// selection — the hot-path variant an execution backend threads its
    /// kernels into.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn hamming_hv_with(&self, hv: &BinaryHypervector, kernels: &dyn Kernels) -> Result<usize> {
        if self.dim != hv.dim() {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: hv.dim(),
            });
        }
        Ok(kernels.hamming(self.words, hv.as_words()) as usize)
    }

    /// Normalized Hamming distance (`hamming / dim`) to a hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn normalized_hamming_hv(&self, hv: &BinaryHypervector) -> Result<f64> {
        Ok(self.hamming_hv(hv)? as f64 / self.dim as f64)
    }

    /// [`normalized_hamming_hv`](Self::normalized_hamming_hv) through an
    /// explicit [`Kernels`] selection.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn normalized_hamming_hv_with(
        &self,
        hv: &BinaryHypervector,
        kernels: &dyn Kernels,
    ) -> Result<f64> {
        Ok(self.hamming_hv_with(hv, kernels)? as f64 / self.dim as f64)
    }

    /// Copies this row into an owned [`BinaryHypervector`] (allocates).
    pub fn to_hypervector(&self) -> BinaryHypervector {
        BinaryHypervector::from_words(self.dim, self.words.to_vec())
            .expect("row views hold exactly dim.div_ceil(64) words")
    }
}

/// An exclusive, never-allocating view of one [`HvMatrix`] row.
#[derive(Debug)]
pub struct HvRowMut<'a> {
    words: &'a mut [u64],
    dim: usize,
}

impl HvRowMut<'_> {
    /// The hypervector dimension of this row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Reborrows as a shared row view.
    pub fn as_row(&self) -> HvRow<'_> {
        HvRow {
            words: self.words,
            dim: self.dim,
        }
    }

    /// Sets every bit of the row to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Overwrites the row with `hv`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn copy_from(&mut self, hv: &BinaryHypervector) -> Result<()> {
        self.check_dim(hv.dim())?;
        self.words.copy_from_slice(hv.as_words());
        Ok(())
    }

    /// Overwrites the row with another row.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn copy_from_row(&mut self, row: HvRow<'_>) -> Result<()> {
        self.check_dim(row.dim())?;
        self.words.copy_from_slice(row.as_words());
        Ok(())
    }

    /// XORs `hv` into the row in place (the HDC binding operation).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn xor_assign(&mut self, hv: &BinaryHypervector) -> Result<()> {
        self.xor_assign_with(hv, kernels::auto())
    }

    /// [`xor_assign`](Self::xor_assign) through an explicit [`Kernels`]
    /// selection — the hot-path variant the batch pixel encoder threads its
    /// backend kernels into.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn xor_assign_with(&mut self, hv: &BinaryHypervector, kernels: &dyn Kernels) -> Result<()> {
        self.check_dim(hv.dim())?;
        kernels.xor_into(self.words, hv.as_words());
        Ok(())
    }

    /// XORs another row into this one in place.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn xor_assign_row(&mut self, row: HvRow<'_>) -> Result<()> {
        self.check_dim(row.dim())?;
        kernels::auto().xor_into(self.words, row.as_words());
        Ok(())
    }

    fn check_dim(&self, other: usize) -> Result<()> {
        if self.dim != other {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: other,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HdcRng;

    fn rng() -> HdcRng {
        HdcRng::seed_from(0xBEEF)
    }

    #[test]
    fn zero_dimension_is_rejected_and_zero_rows_allowed() {
        assert_eq!(HvMatrix::zeros(4, 0).unwrap_err(), HdcError::ZeroDimension);
        let empty = HvMatrix::zeros(0, 128).unwrap();
        assert_eq!(empty.rows(), 0);
        assert!(empty.to_vectors().is_empty());
    }

    #[test]
    fn stride_matches_packed_word_count() {
        for (dim, stride) in [(1usize, 1usize), (64, 1), (65, 2), (1000, 16), (1024, 16)] {
            let m = HvMatrix::zeros(3, dim).unwrap();
            assert_eq!(m.stride_words(), stride, "dim {dim}");
            assert_eq!(m.as_words().len(), 3 * stride);
        }
    }

    #[test]
    fn rows_round_trip_with_binary_hypervectors() {
        let mut r = rng();
        for dim in [1usize, 63, 64, 65, 500, 1024] {
            let vectors: Vec<BinaryHypervector> = (0..5)
                .map(|_| BinaryHypervector::random(dim, &mut r))
                .collect();
            let matrix = HvMatrix::from_vectors(&vectors).unwrap();
            assert_eq!(matrix.rows(), 5);
            assert_eq!(matrix.dim(), dim);
            for (i, hv) in vectors.iter().enumerate() {
                assert_eq!(&matrix.row(i).to_hypervector(), hv, "dim {dim}, row {i}");
            }
            assert_eq!(matrix.to_vectors(), vectors);
        }
    }

    #[test]
    fn from_vectors_validates_input() {
        assert_eq!(
            HvMatrix::from_vectors(&[]).unwrap_err(),
            HdcError::EmptyInput
        );
        let mut r = rng();
        let mixed = vec![
            BinaryHypervector::random(64, &mut r),
            BinaryHypervector::random(65, &mut r),
        ];
        assert!(matches!(
            HvMatrix::from_vectors(&mixed),
            Err(HdcError::DimensionMismatch {
                left: 64,
                right: 65
            })
        ));
    }

    #[test]
    fn row_ops_match_vector_ops() {
        let mut r = rng();
        for dim in [70usize, 256, 1000] {
            let a = BinaryHypervector::random(dim, &mut r);
            let b = BinaryHypervector::random(dim, &mut r);
            let mut m = HvMatrix::zeros(2, dim).unwrap();
            m.set_row(0, &a).unwrap();
            m.set_row(1, &b).unwrap();

            assert_eq!(m.row(0).count_ones(), a.count_ones());
            assert_eq!(m.row(0).hamming(m.row(1)).unwrap(), a.hamming(&b).unwrap());
            assert_eq!(m.row(0).hamming_hv(&b).unwrap(), a.hamming(&b).unwrap());
            let ones: Vec<usize> = m.row(1).iter_ones().collect();
            let expected: Vec<usize> = b.iter_ones().collect();
            assert_eq!(ones, expected);

            // XOR-bind in place equals the allocating xor.
            m.row_mut(0).xor_assign(&b).unwrap();
            assert_eq!(m.row(0).to_hypervector(), a.xor(&b).unwrap());
            let row1 = m.row(1).to_hypervector();
            m.row_mut(0)
                .xor_assign_row(HvRow {
                    words: row1.as_words(),
                    dim,
                })
                .unwrap();
            assert_eq!(m.row(0).to_hypervector(), a);
        }
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let mut m = HvMatrix::zeros(2, 128).unwrap();
        let wrong = BinaryHypervector::zeros(64).unwrap();
        assert!(m.set_row(0, &wrong).is_err());
        assert!(m.row_mut(0).copy_from(&wrong).is_err());
        assert!(m.row_mut(0).xor_assign(&wrong).is_err());
        assert!(m.row(0).hamming_hv(&wrong).is_err());
        assert!(m
            .set_row(9, &BinaryHypervector::zeros(128).unwrap())
            .is_err());
        let other = HvMatrix::zeros(1, 64).unwrap();
        assert!(m.row(0).hamming(other.row(0)).is_err());
    }

    #[test]
    #[should_panic]
    fn out_of_range_row_view_panics() {
        let m = HvMatrix::zeros(2, 64).unwrap();
        let _ = m.row(2);
    }

    #[test]
    fn clear_and_copy_between_rows() {
        let mut r = rng();
        let a = BinaryHypervector::random(130, &mut r);
        let mut m = HvMatrix::zeros(2, 130).unwrap();
        m.set_row(0, &a).unwrap();
        let row0 = m.row(0).to_hypervector();
        m.row_mut(1)
            .copy_from_row(HvRow {
                words: row0.as_words(),
                dim: 130,
            })
            .unwrap();
        assert_eq!(m.row(1).to_hypervector(), a);
        m.row_mut(0).clear();
        assert_eq!(m.row(0).count_ones(), 0);
        // Clearing row 0 must not touch row 1.
        assert_eq!(m.row(1).to_hypervector(), a);
    }

    #[test]
    fn reset_reuses_the_backing_allocation() {
        let mut r = rng();
        let mut m = HvMatrix::zeros(10, 256).unwrap();
        for i in 0..10 {
            m.set_row(i, &BinaryHypervector::random(256, &mut r))
                .unwrap();
        }
        let peak = m.capacity_bytes();
        assert!(peak >= 10 * 4 * 8);

        // Shrinking keeps the allocation and zeroes the content.
        m.reset(3, 100).unwrap();
        assert_eq!((m.rows(), m.dim(), m.stride_words()), (3, 100, 2));
        assert_eq!(m.capacity_bytes(), peak);
        assert!(m.as_words().iter().all(|&w| w == 0));

        // Growing within a previously-seen word budget also keeps it.
        m.reset(5, 128).unwrap();
        assert_eq!(m.capacity_bytes(), peak);

        // Zero dimension stays invalid; zero rows are fine.
        assert!(m.reset(4, 0).is_err());
        m.reset(0, 64).unwrap();
        assert_eq!(m.rows(), 0);
    }

    #[test]
    fn fill_rows_writes_every_row_in_parallel() {
        let mut r = rng();
        let codebook: Vec<BinaryHypervector> = (0..7)
            .map(|_| BinaryHypervector::random(200, &mut r))
            .collect();
        // Crosses two block boundaries and ends in a partial block.
        let rows = 2 * FILL_BLOCK_ROWS + 3;
        let mut m = HvMatrix::zeros(rows, 200).unwrap();
        m.fill_rows(|i, row| {
            row.copy_from(&codebook[i % 7]).unwrap();
            row.xor_assign(&codebook[(i + 1) % 7]).unwrap();
        });
        for i in 0..rows {
            let expected = codebook[i % 7].xor(&codebook[(i + 1) % 7]).unwrap();
            assert_eq!(m.row(i).to_hypervector(), expected, "row {i}");
        }
    }

    #[test]
    fn tail_bits_stay_clear_through_row_ops() {
        let mut r = rng();
        let a = BinaryHypervector::random(70, &mut r);
        let b = BinaryHypervector::random(70, &mut r);
        let mut m = HvMatrix::zeros(1, 70).unwrap();
        m.set_row(0, &a).unwrap();
        m.row_mut(0).xor_assign(&b).unwrap();
        // count_ones over the raw words must equal the logical popcount.
        assert_eq!(m.row(0).count_ones(), a.xor(&b).unwrap().count_ones());
        assert!(m.row(0).iter_ones().all(|i| i < 70));
    }
}
