"""APX003 bad fixture: a two-lock cycle plus a plain-Lock self-deadlock."""

import threading


class Right:
    def __init__(self, left: "Left"):
        self._lock = threading.Lock()
        self._left = left

    def backward(self):
        with self._lock:
            self._left.touch()  # Right._lock -> Left._lock

    def grab(self):
        with self._lock:
            pass


class Left:
    def __init__(self, right: "Right"):
        self._lock = threading.Lock()
        self._right = right

    def forward(self):
        with self._lock:
            self._right.grab()  # Left._lock -> Right._lock: cycle!

    def touch(self):
        with self._lock:
            pass


class Selfish:
    def __init__(self):
        self._lock = threading.Lock()

    def outer(self):
        with self._lock:
            self.inner()  # re-acquires the same non-reentrant Lock

    def inner(self):
        with self._lock:
            pass

