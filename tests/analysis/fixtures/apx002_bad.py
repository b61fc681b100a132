"""APX002 bad fixture: table-keyed caches with no version marker."""


class Planner:
    def __init__(self, memo):
        self._plan_cache = {}
        self._plan_memo = memo

    def lookup(self, table, name):
        return self._plan_cache.get((table, name))

    def store(self, table, name, plan):
        self._plan_cache[(table, name)] = plan

    def resolve(self, table, name, build):
        return self._plan_memo.lookup((table, name), build)
