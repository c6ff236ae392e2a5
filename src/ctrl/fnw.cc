#include "fnw.hh"

namespace ladder
{

FnwDecision
fnwDecide(const LineData &stored, const LineData &data, FnwMode mode)
{
    FnwDecision out;
    BitTransitions plain = countTransitions(stored, data);

    if (mode == FnwMode::Off) {
        out.data = data;
        out.transitions = plain.resets + plain.sets;
        out.resets = plain.resets;
        out.sets = plain.sets;
        return out;
    }

    LineData inverted = invertLine(data);
    BitTransitions flippedT = countTransitions(stored, inverted);
    unsigned plainCost = plain.resets + plain.sets;
    unsigned flipCost = flippedT.resets + flippedT.sets;

    bool wantFlip = flipCost < plainCost;
    if (wantFlip && mode == FnwMode::Constrained) {
        // The counting constraint: the written variant must not hold
        // more '1's than the unflipped data. The inverted line holds
        // 512 - ones(data), so it has more iff ones(data) < 256.
        if (popcountLine(data) < lineBytes * 4) {
            wantFlip = false;
            out.flipCancelled = true;
        }
    }

    if (wantFlip) {
        out.flip = true;
        out.data = inverted;
        out.transitions = flipCost;
        out.resets = flippedT.resets;
        out.sets = flippedT.sets;
    } else {
        out.data = data;
        out.transitions = plainCost;
        out.resets = plain.resets;
        out.sets = plain.sets;
    }
    return out;
}

} // namespace ladder
