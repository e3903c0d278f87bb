"""Unit tests for branch prediction structures."""

from repro.cpu.branch import (BranchTargetBuffer, ReturnAddressStack,
                              TagePredictor)


def test_tage_learns_always_taken():
    predictor = TagePredictor()
    pc = 0x1000
    for _ in range(8):
        prediction = predictor.predict(pc)
        predictor.update(pc, True, prediction)
    assert predictor.predict(pc).taken


def test_tage_learns_always_not_taken():
    predictor = TagePredictor()
    pc = 0x1000
    for _ in range(8):
        prediction = predictor.predict(pc)
        predictor.update(pc, False, prediction)
    assert not predictor.predict(pc).taken


def test_tage_learns_loop_exit_pattern():
    """A branch taken 7 times then not-taken once (loop of 8) should be
    predicted well once the tagged tables pick up the history pattern."""
    predictor = TagePredictor()
    pc = 0x2000
    mispredicts = 0
    for trip in range(200):
        for i in range(8):
            taken = i != 7
            prediction = predictor.predict(pc)
            if prediction.taken != taken:
                mispredicts = mispredicts + 1 if trip >= 150 else mispredicts
            predictor.update(pc, taken, prediction)
    # In the last 50 trips the exit should be mostly predicted.
    assert mispredicts <= 25


def test_tage_random_branch_mispredicts():
    import random
    rng = random.Random(7)
    predictor = TagePredictor()
    pc = 0x3000
    wrong = 0
    total = 400
    for _ in range(total):
        taken = rng.random() < 0.5
        prediction = predictor.predict(pc)
        wrong += prediction.taken != taken
        predictor.update(pc, taken, prediction)
    assert wrong > total * 0.25  # genuinely unpredictable


def test_tage_accuracy_property():
    predictor = TagePredictor()
    assert predictor.accuracy == 1.0
    prediction = predictor.predict(0x100)
    predictor.update(0x100, not prediction.taken, prediction)
    assert predictor.accuracy < 1.0


def test_prediction_checkpoints_history():
    predictor = TagePredictor()
    prediction = predictor.predict(0x100)
    assert prediction.history == predictor.history
    predictor.update(0x100, True, prediction)
    assert predictor.history != prediction.history or \
        prediction.history == ((prediction.history << 1) | 1) & ((1 << 64) - 1)


def test_btb_insert_lookup():
    btb = BranchTargetBuffer(entries=16)
    assert btb.lookup(0x100) is None
    btb.insert(0x100, 0x2000)
    assert btb.lookup(0x100) == 0x2000


def test_btb_aliasing_replaces():
    btb = BranchTargetBuffer(entries=16)
    btb.insert(0x100, 0x2000)
    btb.insert(0x100 + 16 * 4, 0x3000)  # same slot
    assert btb.lookup(0x100) is None
    assert btb.lookup(0x100 + 64) == 0x3000


def test_ras_lifo():
    ras = ReturnAddressStack(entries=4)
    ras.push(0x100)
    ras.push(0x200)
    assert ras.pop() == 0x200
    assert ras.pop() == 0x100
    assert ras.pop() is None


def test_ras_overflow_drops_oldest():
    ras = ReturnAddressStack(entries=2)
    ras.push(0x100)
    ras.push(0x200)
    ras.push(0x300)
    assert ras.pop() == 0x300
    assert ras.pop() == 0x200
    assert ras.pop() is None
