//! Embedding lookup — a memory-bound quantized operator in the paper's
//! extended scheme (weights quantized, lookup itself is a gather).

use crate::tensor::Tensor;

/// Gather rows of `table[vocab, dim]` for each id in `ids` into `out`
/// (`[ids.len(), dim]`), reusing its allocation.
///
/// # Panics
///
/// Panics if the table is not 2-D or any id is out of range.
pub fn embedding_into(table: &Tensor, ids: &[usize], out: &mut Tensor) {
    assert_eq!(table.ndim(), 2, "embedding table must be 2-D");
    let (vocab, dim) = (table.dim(0), table.dim(1));
    out.reuse_as(&[ids.len(), dim]);
    for (i, &id) in ids.iter().enumerate() {
        assert!(id < vocab, "token id {id} out of vocab {vocab}");
        out.data_mut()[i * dim..(i + 1) * dim].copy_from_slice(table.row(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embedding(table: &Tensor, ids: &[usize]) -> Tensor {
        let mut out = Tensor::default();
        embedding_into(table, ids, &mut out);
        out
    }

    #[test]
    fn lookup_rows() {
        let table = Tensor::from_vec(vec![0., 0., 1., 1., 2., 2.], &[3, 2]);
        let y = embedding(&table, &[2, 0, 2]);
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(y.data(), &[2., 2., 0., 0., 2., 2.]);
    }

    #[test]
    fn empty_ids() {
        let table = Tensor::ones(&[3, 4]);
        let y = embedding(&table, &[]);
        assert_eq!(y.shape(), &[0, 4]);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn id_out_of_range() {
        embedding(&Tensor::ones(&[3, 2]), &[3]);
    }
}
