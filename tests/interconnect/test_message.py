"""Message records: packed int slots."""

from repro.interconnect.message import Message


class TestMessage:
    def test_unique_uids(self):
        a = Message(src=0, dst=1, kind="x")
        b = Message(src=0, dst=1, kind="x")
        assert a.uid != b.uid

    def test_duplicate_copies_payload(self):
        original = Message(src=0, dst=1, kind="x", data=[1, 2])
        dup = original.copy_for_duplicate()
        assert dup.uid != original.uid
        assert dup.data == original.data
        dup.data[0] = 99
        assert original.data[0] == 1  # deep enough copy

    def test_duplicate_copies_int_slots(self):
        original = Message(src=0, dst=1, kind="x", req=3, acks=2, flags=3)
        assert (original.req, original.acks, original.flags) == (3, 2, 3)
        original.etype = 1
        original.t_begin = 10
        original.t_end = 20
        original.h_begin = 0xAB
        original.h_end = 0xCD
        original.tid = 5
        dup = original.copy_for_duplicate()
        for slot in (
            "req",
            "acks",
            "flags",
            "etype",
            "t_begin",
            "t_end",
            "h_begin",
            "h_end",
            "tid",
        ):
            assert getattr(dup, slot) == getattr(original, slot)

    def test_duplicate_of_dataless_message(self):
        original = Message(src=0, dst=1, kind="x")
        assert original.copy_for_duplicate().data is None

    def test_defaults(self):
        m = Message(src=2, dst=3, kind="y")
        assert m.addr == 0
        assert m.size_bytes == 8
        assert m.req == m.acks == -1
        assert m.flags == 0
        assert m.etype == m.t_begin == m.t_end == -1
        assert m.h_begin == m.h_end == -1
        assert m.tid == 0
