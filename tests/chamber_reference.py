"""Reference chamber representatives for the tests.

``chamber_sort`` picks the dominant representative of one split-part vector
under the little Weyl group, factor by factor, on plain Python numbers.  It
is the scalar reference for ``cartanproj._chamber_rows``, which does the
same row-wise in NumPy for the B, C, BC and D factors.
"""
from ckforms.rootweyl import SplitData, _g2_weyl


def chamber_sort(sd: SplitData, vec):
    """Dominant representative of a split-part vector under the little Weyl
    group, factor by factor.  Works on floats or Fractions; a g2 factor
    takes the largest image den * w(x) over its integer stack and divides it
    by den."""
    out = list(vec)
    for f in sd.factors:
        seg = out[f.offset : f.offset + f.rank]
        if f.root_type == "G":
            den, W = _g2_weyl(f)
            seg = [x / den for x in max(
                tuple(sum(w[i][j] * seg[j] for j in range(2)) for i in range(2))
                for w in W.tolist()
            )]
        elif f.root_type == "D":
            mags = sorted((abs(x) for x in seg), reverse=True)
            neg = sum(1 for x in seg if x < 0)
            if neg % 2:
                mags[-1] = -mags[-1]
            seg = mags
        else:
            seg = sorted((abs(x) for x in seg), reverse=True)
        out[f.offset : f.offset + f.rank] = seg
    return out
